package cluster

import (
	"sync"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
)

// submitBatcher coalesces client submissions into multi-op commands.
// Requests arriving within a flush window accumulate, per target shard,
// until the window closes or the batch reaches maxOps operations; one
// Tempo command (one consensus round, one kvstore apply) then carries
// all of them, and each request's waiter is completed with its own
// segment of the per-op results.
type submitBatcher struct {
	n      *Node
	maxOps int
	window time.Duration
	// pace, when non-zero, is the minimum interval between two flushes
	// of one bucket — a per-shard bound on the consensus round rate.
	// Each flush then carries at most maxOps operations (the remainder
	// stays queued for the next paced round), so a shard's admission is
	// capped at maxOps/pace per gateway: overload amortizes into
	// full-size rounds at a fixed rate instead of a round per arrival
	// burst, bounding round fan-out and executor backlog per shard at a
	// latency cost of up to pace per request. Zero (the default)
	// preserves plain group commit: flush on size or window, whole
	// bucket at once.
	pace time.Duration

	//tempo:guard
	mu      sync.Mutex
	closed  bool
	buckets map[ids.ShardID]*batchBucket
}

// batchEntry is one client request waiting in a bucket.
type batchEntry struct {
	w   *waiter
	ops []command.Op
}

type batchBucket struct {
	entries []batchEntry
	nops    int
	// lastFlush and timerSet drive paced flushing; lastFlush is zero
	// until the bucket's first flush.
	lastFlush time.Time
	timerSet  bool
}

func newSubmitBatcher(n *Node, maxOps int, window time.Duration, pace time.Duration) *submitBatcher {
	return &submitBatcher{
		n:       n,
		maxOps:  maxOps,
		window:  window,
		pace:    pace,
		buckets: make(map[ids.ShardID]*batchBucket),
	}
}

// add enqueues one request for a shard's bucket. A bucket reaching
// maxOps flushes immediately on the caller's goroutine; so does any
// arrival while the node has no command in flight — with nothing to
// coalesce against, holding the bucket the full window would tax serial
// clients for no batching gain (group commit: batch under concurrency,
// stay prompt when idle; the idle check covers the whole bucket, so
// requests queued behind a since-completed command ride out too).
// Otherwise the timer armed when the bucket went non-empty flushes one
// window later. A stale timer firing after a size-triggered flush just
// flushes the next batch early — smaller batch, never a stall.
func (b *submitBatcher) add(shard ids.ShardID, w *waiter, ops []command.Op) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		if b.n.claimOne(w) {
			w.fail(command.WireError{Code: command.ErrCodeShutdown, Msg: "node shutting down"})
		}
		return
	}
	bk := b.buckets[shard]
	if bk == nil {
		bk = &batchBucket{}
		b.buckets[shard] = bk
	}
	bk.entries = append(bk.entries, batchEntry{w: w, ops: ops})
	bk.nops += len(ops)
	now := time.Now()
	if (bk.nops >= b.maxOps || b.n.pendingCmds() == 0) && b.paceAllowsLocked(bk, now) {
		entries := b.takeLocked(bk, now)
		b.mu.Unlock()
		b.flushEntries(entries)
		return
	}
	b.armTimerLocked(shard, bk, now)
	b.mu.Unlock()
}

// paceAllowsLocked reports whether a bucket may flush now under the
// pacing policy. The caller holds b.mu.
func (b *submitBatcher) paceAllowsLocked(bk *batchBucket, now time.Time) bool {
	return b.pace == 0 || now.Sub(bk.lastFlush) >= b.pace
}

// takeLocked removes the next flush's entries from the bucket: the
// whole bucket unpaced, or up to maxOps operations (at least one entry)
// paced, with the remainder left for the next round. The caller holds
// b.mu and is responsible for arming a timer if a remainder stays.
func (b *submitBatcher) takeLocked(bk *batchBucket, now time.Time) []batchEntry {
	bk.lastFlush = now
	if b.pace == 0 {
		entries := bk.entries
		bk.entries, bk.nops = nil, 0
		return entries
	}
	n, ops := 0, 0
	for n < len(bk.entries) && (n == 0 || ops+len(bk.entries[n].ops) <= b.maxOps) {
		ops += len(bk.entries[n].ops)
		n++
	}
	entries := bk.entries[:n:n]
	bk.entries = append([]batchEntry(nil), bk.entries[n:]...)
	bk.nops -= ops
	return entries
}

// armTimerLocked schedules the next timer flush for a non-empty bucket:
// one window out, or when the pace next allows, whichever is later. The
// caller holds b.mu.
func (b *submitBatcher) armTimerLocked(shard ids.ShardID, bk *batchBucket, now time.Time) {
	if bk.timerSet || len(bk.entries) == 0 {
		return
	}
	bk.timerSet = true
	delay := b.window
	if b.pace > 0 {
		if until := bk.lastFlush.Add(b.pace).Sub(now); until > delay {
			delay = until
		}
	}
	time.AfterFunc(delay, func() { b.flushShard(shard) })
}

// flushShard flushes a shard's bucket (the timer path): everything it
// holds unpaced, the next maxOps-bounded round paced — re-arming for
// the round after when a remainder stays queued.
func (b *submitBatcher) flushShard(shard ids.ShardID) {
	b.mu.Lock()
	bk := b.buckets[shard]
	var entries []batchEntry
	if bk != nil {
		bk.timerSet = false
		now := time.Now()
		if len(bk.entries) > 0 {
			if b.paceAllowsLocked(bk, now) {
				entries = b.takeLocked(bk, now)
			}
			b.armTimerLocked(shard, bk, now)
		}
	}
	b.mu.Unlock()
	b.flushEntries(entries)
}

// flushEntries submits one batch as a single command. Requests whose
// deadline already passed while queued are failed with a timeout
// instead of being submitted — each entry succeeds or fails on its own,
// never dragging its batchmates along. Entry boundaries become value
// segments: ops stay contiguous per request, so the executed command's
// per-op results split back exactly.
func (b *submitBatcher) flushEntries(entries []batchEntry) {
	if len(entries) == 0 {
		return
	}
	now := time.Now()
	var expired []*waiter
	members := make([]*waiter, 0, len(entries))
	total := 0
	for _, e := range entries {
		total += len(e.ops)
	}
	ops := make([]command.Op, 0, total)
	for _, e := range entries {
		if !e.w.deadline.IsZero() && now.After(e.w.deadline) {
			if b.n.claimOne(e.w) {
				expired = append(expired, e.w)
			}
			continue
		}
		e.w.off, e.w.nvals = len(ops), len(e.ops)
		members = append(members, e.w)
		ops = append(ops, e.ops...)
	}
	for _, w := range expired {
		w.fail(command.WireError{Code: command.ErrCodeTimeout, Msg: "deadline exceeded before execution"})
	}
	if len(members) > 0 {
		b.n.stat.batchFlushes.Add(1)
		b.n.stat.batchedOps.Add(uint64(len(ops)))
		b.n.submitCmd(members, ops)
	}
}

// close fails every queued request and stops accepting new ones; it
// returns the waiters it claimed so Node.Close can fail them alongside
// the registered ones.
func (b *submitBatcher) close() []*waiter {
	b.mu.Lock()
	b.closed = true
	var all []batchEntry
	for _, bk := range b.buckets {
		all = append(all, bk.entries...)
		bk.entries, bk.nops = nil, 0
	}
	b.mu.Unlock()
	var claimed []*waiter
	for _, e := range all {
		if b.n.claimOne(e.w) {
			claimed = append(claimed, e.w)
		}
	}
	return claimed
}
