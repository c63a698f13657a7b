package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"tempo/client"
	"tempo/internal/command"
)

// openRing bounds the open loop's in-flight operations: two deadlines'
// worth of sends at the workload's rate, so the ring fills only when
// the deployment has stopped answering altogether.
const openRing = 8192

// retryPause is how long the driver waits before it sends a failed
// attempt again.
const retryPause = time.Millisecond

// slot is one in-flight operation.
type slot struct {
	f   *client.Future
	seq uint32
	// start is when the operation's latency clock started: its send
	// time in the closed loop, its due time in the open loop.
	start int64
	// sent is when the current attempt was handed to the session.
	sent int64
	// floorA/floorB are the session's last acknowledged put (seq+1) to
	// each key when the attempt was sent, supA/supB its newest
	// superseded put: see Session.lastAcked.
	floorA, floorB, supA, supB uint32
}

// Session drives one client session from one goroutine: it issues the
// session's generated operations, reaps completions in issue order,
// checks every result and records latencies. All times are nanoseconds
// since the run's epoch.
type Session struct {
	id   int
	spec Spec
	in   *Inputs
	sess *client.Session
	ctx  context.Context
	// gone is an already-expired context: waiting on it abandons a
	// request the watchdog gave up on.
	gone  context.Context
	epoch time.Time
	// warmEnd and stop bound the measure window.
	warmEnd, stop int64
	// issued is each session's next sequence number, shared so a
	// reader can tell that a value it saw had really been sent.
	issued *[Sessions]atomic.Uint32
	// trace, when set, receives every completed operation.
	trace *Tracer
	// issue sends one attempt; it is send, except in tests.
	issue func(seq uint32, start, now int64)

	ring       []slot
	head, tail int
	seq        uint32
	value      []byte
	expect     []byte
	ops        [2]command.Op
	tick       *time.Ticker

	// lastAcked is, per key, seq+1 of this session's last acknowledged
	// put (0: none). Pipelined puts are concurrent, so the deployment
	// may order them either way; a put is known to be overwritten only
	// once a later put, sent after the first was acknowledged, has been
	// acknowledged too. superseded is, per key, seq+1 of the newest put
	// known overwritten in that sense: a get sent afterwards may not
	// return it, nor anything older.
	lastAcked, superseded []uint32

	// Results.
	Lat       []int64 // latency of every completed op counted in the window
	LatCross  []int64 // ... of those spanning both shards (sharded workloads)
	LatSingle []int64 // ... of those on one shard (sharded workloads)
	Late      []int64 // open loop: how late each send ran
	Attempted int
	Failed    int
	Retried   int
	Completed int   // operations that completed inside the window
	lastDone  int64 // when the last of them did
	Stall     Gaps  // longest gap between consecutive completions in the window
	Err       error // first failed output check
	// marks[k] is the index in Lat of the first operation of slice k of
	// the window (by completion time in the closed loop, by due time in
	// the open loop); doneIn[k] counts completions inside slice k.
	marks  []int
	doneIn [Slices]int
	// calmEnd is when the window's fault-free part ends (the first
	// crash, or stop); Lat[:calm] are the operations before it.
	calmEnd int64
	calm    int
}

// newSession prepares a driver; Run starts it.
func newSession(ctx context.Context, id int, spec Spec, in *Inputs, sess *client.Session, issued *[Sessions]atomic.Uint32) *Session {
	gone, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
	cancel()
	size := spec.Inflight
	if size == 0 {
		size = openRing
	}
	s := &Session{
		id: id, spec: spec, in: in, sess: sess, ctx: ctx, gone: gone, issued: issued,
		ring:       make([]slot, size),
		value:      make([]byte, spec.ValueBytes),
		expect:     make([]byte, spec.ValueBytes),
		lastAcked:  make([]uint32, spec.Keys),
		superseded: make([]uint32, spec.Keys),
	}
	s.issue = s.send
	return s
}

// now is the time since the run's epoch.
func (s *Session) now() int64 { return int64(time.Since(s.epoch)) }

// Run drives the session from epoch: warm-up until warmEnd, measuring
// until stop, then draining what is still in flight.
func (s *Session) Run(epoch time.Time, warmEnd, stop, calmEnd time.Duration) {
	s.epoch, s.warmEnd, s.stop, s.calmEnd = epoch, int64(warmEnd), int64(stop), int64(calmEnd)
	// Sized before the clock starts so recording does not allocate: the
	// open loop's count is known, the closed loop's is bounded by three
	// times what this machine reaches.
	size := 3 * StreamLen
	if s.spec.Rate > 0 {
		size = int((stop-warmEnd).Seconds()*float64(s.spec.Rate)) + 1
	}
	s.Lat = make([]int64, 0, size)
	s.tick = time.NewTicker(100 * time.Millisecond)
	defer s.tick.Stop()
	if s.spec.Inflight > 0 {
		s.runClosed()
	} else {
		s.runOpen()
	}
}

// runClosed keeps Inflight operations pipelined: the next one is sent
// only when the oldest completes.
func (s *Session) runClosed() {
	for {
		now := s.now()
		if now >= s.stop {
			break
		}
		if s.tail-s.head == len(s.ring) {
			s.reap(true)
			continue
		}
		s.send(s.seq, now, now)
		s.seq++
	}
	for s.tail > s.head {
		s.reap(true)
	}
}

// runOpen sends on a fixed schedule whatever the deployment does, and
// clocks every operation from when it was due.
func (s *Session) runOpen() {
	due, period := schedule(s.id, s.spec.Rate)
	s.Late = make([]int64, 0, cap(s.Lat))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := s.now()
		due = s.sendDue(due, period, now)
		if due >= s.stop && s.tail == s.head {
			return
		}
		var done <-chan struct{}
		if s.tail > s.head {
			done = s.ring[s.head%len(s.ring)].f.Done()
		}
		if due >= s.stop || s.tail-s.head == len(s.ring) {
			timer.Reset(time.Hour) // nothing left to send, or no room: completions only
		} else {
			timer.Reset(time.Duration(due - now))
		}
		select {
		case <-done:
			s.reap(false)
		case <-timer.C:
		case <-s.tick.C:
			s.reap(false)
		}
	}
}

// schedule is a session's open-loop send schedule: the first due time
// and the period, in ns. Sessions are offset so their sends interleave.
func schedule(id, rate int) (first, period int64) {
	period = int64(time.Second) / int64(rate)
	return int64(id) * period / Sessions, period
}

// sendDue sends every operation that is due at now, each clocked from
// its due time however late the driver runs, and returns the next due
// time. It stops early when the window ends or the ring is full.
func (s *Session) sendDue(due, period, now int64) int64 {
	for due <= now && due < s.stop && s.tail-s.head < len(s.ring) {
		if due >= s.warmEnd {
			s.Late = append(s.Late, now-due)
		}
		s.issue(s.seq, due, now)
		s.seq++
		due += period
	}
	return due
}

// send hands one attempt of operation seq to the session.
func (s *Session) send(seq uint32, start, now int64) {
	op := s.in.At(s.id, seq)
	sl := &s.ring[s.tail%len(s.ring)]
	*sl = slot{seq: seq, start: start, sent: now, floorA: s.lastAcked[op.A], supA: s.superseded[op.A]}
	n := 1
	if op.B != NoKey {
		sl.floorB, sl.supB = s.lastAcked[op.B], s.superseded[op.B]
	}
	if op.Get {
		s.ops[0] = command.Op{Kind: command.Get, Key: s.in.Keys[op.A]}
		if op.B != NoKey {
			s.ops[1] = command.Op{Kind: command.Get, Key: s.in.Keys[op.B]}
			n = 2
		}
	} else {
		v := s.in.Value(s.value, s.id, seq)
		s.ops[0] = command.Op{Kind: command.Put, Key: s.in.Keys[op.A], Value: v}
		if op.B != NoKey {
			s.ops[1] = command.Op{Kind: command.Put, Key: s.in.Keys[op.B], Value: v}
			n = 2
		}
	}
	if seq >= s.issued[s.id].Load() {
		s.issued[s.id].Store(seq + 1)
	}
	// Do encodes the request before it returns, so the op and value
	// buffers are free for the next send.
	sl.f = s.sess.Do(s.ctx, s.ops[:n]...)
	s.tail++
}

// reap handles the oldest in-flight operation. With block it waits for
// the completion; without, it returns at once when there is none yet.
// Either way an attempt unanswered for OpDeadline is abandoned.
func (s *Session) reap(block bool) {
	if s.tail == s.head {
		return
	}
	sl := s.ring[s.head%len(s.ring)]
	for {
		select {
		case <-sl.f.Done():
			vals, err := sl.f.Wait(s.ctx)
			s.head++
			s.complete(sl, vals, err)
			return
		default:
		}
		if s.now()-sl.sent > int64(OpDeadline) {
			_, err := sl.f.Wait(s.gone) // abandons the request
			s.head++
			s.complete(sl, nil, err)
			return
		}
		if !block {
			return
		}
		select {
		case <-sl.f.Done():
		case <-s.tick.C:
		}
	}
}

// counted reports whether an operation belongs to the measure window:
// by completion time in the closed loop (a slow deployment completes
// less), by due time in the open loop (requests due during a stall
// still count).
func (s *Session) counted(sl slot, done int64) bool {
	if s.spec.Inflight > 0 {
		return done > s.warmEnd && done <= s.stop
	}
	return sl.start >= s.warmEnd && sl.start < s.stop
}

// sliceOf is the slice of the window that instant t falls into.
func (s *Session) sliceOf(t int64) int {
	k := int((t - s.warmEnd) * Slices / (s.stop - s.warmEnd))
	return min(max(k, 0), Slices-1)
}

// slice returns the latencies recorded for slice k of the window.
func (s *Session) slice(k int) []int64 {
	if k >= len(s.marks) {
		return nil
	}
	end := len(s.Lat)
	if k+1 < len(s.marks) {
		end = s.marks[k+1]
	}
	return s.Lat[s.marks[k]:end]
}

// complete checks and records one finished attempt. A failed attempt
// is retried, as an application would, until the operation's deadline;
// a put is idempotent because its value is a function of its sequence
// number.
func (s *Session) complete(sl slot, vals [][]byte, err error) {
	done := s.now()
	if err != nil {
		if done-sl.start < int64(OpDeadline) && s.ctx.Err() == nil {
			// A site that is down or still recovering refuses at once;
			// the pause keeps the retries from spinning.
			time.Sleep(retryPause)
			s.Retried++
			s.send(sl.seq, sl.start, s.now())
			return
		}
		if s.counted(sl, done) {
			s.Attempted++
			s.Failed++
		}
		return
	}
	op := s.in.At(s.id, sl.seq)
	if op.Get {
		s.checkGet(op.A, sl.floorA, sl.supA, vals, 0)
		if op.B != NoKey {
			s.checkGet(op.B, sl.floorB, sl.supB, vals, 1)
		}
	} else {
		s.acked(op.A, sl.seq, sl.floorA)
		if op.B != NoKey {
			s.acked(op.B, sl.seq, sl.floorB)
		}
	}
	if s.trace != nil {
		s.trace.Done(s.id, sl.seq, sl.start, done)
	}
	if done > s.warmEnd && done <= s.stop {
		s.Completed++
		s.lastDone = done
		s.doneIn[s.sliceOf(done)]++
	}
	if !s.counted(sl, done) {
		return
	}
	s.Attempted++
	lat := done - sl.start
	if lat > int64(OpDeadline) {
		s.Failed++
	}
	at := done
	if s.spec.Inflight == 0 {
		at = sl.start
	}
	for k := s.sliceOf(at); len(s.marks) <= k; {
		s.marks = append(s.marks, len(s.Lat))
	}
	if at < s.calmEnd {
		s.calm = len(s.Lat) + 1
	}
	s.Lat = append(s.Lat, lat)
	if s.spec.CrossShare > 0 {
		if op.B != NoKey {
			s.LatCross = append(s.LatCross, lat)
		} else {
			s.LatSingle = append(s.LatSingle, lat)
		}
	}
	s.Stall.Observe(done)
}

// acked records the acknowledgement of put seq to key; floor is the
// session's last put to key acknowledged before this one was sent,
// which this one has therefore overwritten.
func (s *Session) acked(key, seq, floor uint32) {
	s.lastAcked[key] = max(s.lastAcked[key], seq+1)
	s.superseded[key] = max(s.superseded[key], floor)
}

// checkGet verifies one value a get returned for key; floor and sup are
// the key's lastAcked and superseded entries when the get was sent.
func (s *Session) checkGet(key, floor, sup uint32, vals [][]byte, i int) {
	if s.Err != nil {
		return
	}
	if i >= len(vals) {
		s.Err = fmt.Errorf("session %d: get of %s returned %d values", s.id, s.in.Keys[key], len(vals))
		return
	}
	s.Err = checkValue(s.in, s.id, key, floor, sup, vals[i], s.expect, s.issued)
}

// checkValue is the read rule shared by the drivers and the final
// verification. v, read for key by session reader, may be empty only if
// reader had no acknowledged put to key when the read was sent (floor
// 0); otherwise it must be a value some session really sent for key,
// and when reader wrote it, newer than sup, reader's newest put known
// to have been overwritten by then.
func checkValue(in *Inputs, reader int, key, floor, sup uint32, v, scratch []byte, issued *[Sessions]atomic.Uint32) error {
	name := in.Keys[key]
	if len(v) == 0 {
		if floor != 0 {
			return fmt.Errorf("session %d: %s read empty after its put #%d was acknowledged", reader, name, floor-1)
		}
		return nil
	}
	ws, wq, ok := Writer(v)
	if !ok {
		return fmt.Errorf("session %d: %s holds %d bytes no session wrote", reader, name, len(v))
	}
	if wq >= issued[ws].Load() {
		return fmt.Errorf("session %d: %s holds put #%d of session %d, which was never sent", reader, name, wq, ws)
	}
	if w := in.At(ws, wq); w.Get || (w.A != key && w.B != key) || !bytes.Equal(v, in.Value(scratch, ws, wq)) {
		return fmt.Errorf("session %d: %s holds a value that is not put #%d of session %d", reader, name, wq, ws)
	}
	if ws == reader && wq+1 <= sup {
		return fmt.Errorf("session %d: %s read its put #%d, which a later acknowledged put had overwritten (#%d and older)", reader, name, wq, sup-1)
	}
	return nil
}
