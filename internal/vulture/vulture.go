// Package vulture is the always-on consistency prober: a long-running
// client that continuously writes, reads, and verifies tagged keys
// through the public client package against a *live* cluster — under
// whatever faults the chaos layer injects — instead of only checking
// execution logs offline after a run.
//
// The probe model is single-writer versioned registers. Every tagged
// key is owned by exactly one writer worker, which stamps each write
// with a strictly increasing version (a self-describing, checksummed
// value). That turns consistency checking into arithmetic on three
// monotone per-key counters and one set:
//
//   - attempted: the highest version ever submitted (acked or not);
//   - acked: the highest version whose write completed OK;
//   - observed: the highest version any completed read returned;
//   - failed: the versions whose write returned an error.
//
// A failed write's outcome is unknown, not negative: a write that timed
// out (client.ErrTimeout) may still be pending inside the cluster and
// execute after later writes of the same session were acked — a legal
// linearization, since a pending operation precedes nothing in real
// time. So a read returning a version below max(acked, observed) at the
// time it was issued is a stale read only when that version's write did
// not fail: an acked write precedes the read in real time, and by the
// specification's Ordering property the read must see it or something
// the same writer wrote later. A read above `attempted` is a phantom — a
// version nobody wrote. A value that fails its checksum or echoes the
// wrong key is corruption. Reads and writes verify opportunistically on
// every operation, hours on end, with O(keys + failed writes) memory.
//
// Optionally the vulture also carries a check.Incremental fed by the
// deployment's execution observers (in-process harnesses), folding the
// total-order stream check into the same report. Reports — violations,
// per-fault availability windows, op counters — are JSON, served on the
// existing -metrics-addr endpoint style via Handler.
package vulture

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tempo/client"
	"tempo/internal/check"
	"tempo/internal/metrics"
	"tempo/internal/workload"
)

// Config tunes a Vulture.
type Config struct {
	// Client is the session template (addresses, topology, timeouts);
	// every worker clones it into its own session.
	Client client.Config
	// Writers and Readers set the worker counts (defaults 2 and 2).
	Writers, Readers int
	// Keys is the tagged keyspace size (default 64). Each key is owned
	// by exactly one writer.
	Keys int
	// KeyPrefix tags the vulture's keys (default "vult").
	KeyPrefix string
	// Theta is the zipfian skew with which workers pick keys (default
	// 0.9 — hot keys are contended keys, where ordering must hold).
	Theta float64
	// Interval paces each worker between operations (default 2ms).
	Interval time.Duration
	// OutageThreshold is the longest gap between successful operations
	// that does not count as an availability window (default 500ms).
	OutageThreshold time.Duration
	// Checker, when set, is the execution-stream verifier fed by the
	// deployment's exec observers; its verdict joins the report.
	Checker *check.Incremental
}

// Vulture is the running prober. Create with New, drive with Run,
// snapshot with Report, gate CI with Failed.
type Vulture struct {
	cfg  Config
	keys []*keyState

	ops, errs, timeouts  atomic.Uint64
	reads, writes        atomic.Uint64
	notFound, violations atomic.Uint64

	mu       sync.Mutex
	started  time.Time
	lastOK   time.Time
	outages  []Outage
	events   []EventMark
	kinds    map[string]uint64
	details  []string
	startErr error
}

// keyState is one tagged key's version accounting.
type keyState struct {
	mu        sync.Mutex
	attempted uint64
	acked     uint64
	observed  uint64
	// failed holds the versions whose write returned an error: reading
	// one of them below the floor is legal (see the package doc).
	failed map[uint64]struct{}
}

// Outage is one availability window: a gap between successful
// operations longer than the configured threshold, attributed to the
// most recent injected fault event.
type Outage struct {
	// Start and End bound the window, as offsets from Run start.
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	// DurationMS is the window length.
	DurationMS float64 `json:"duration_ms"`
	// After names the last fault event injected before the window
	// ended ("" when none was).
	After string `json:"after,omitempty"`
}

// EventMark is one injected-fault mark on the vulture's timeline.
type EventMark struct {
	// Name labels the fault ("sigkill", "partition", "heal", ...).
	Name string `json:"name"`
	// AtSec is the offset from Run start.
	AtSec float64 `json:"at_sec"`
}

// Report is the vulture's JSON snapshot.
type Report struct {
	// RunningSec is how long the prober has been running.
	RunningSec float64 `json:"running_sec"`
	// Ops counts completed operations; Errors those that failed
	// (Timeouts the subset that timed out); Reads/Writes split Ops.
	Ops      uint64 `json:"ops"`
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	// NotFound counts reads of never-written keys (normal early on).
	NotFound uint64 `json:"not_found"`
	// Violations counts consistency violations observed; Kinds and
	// Details break them down (details capped).
	Violations uint64            `json:"violations"`
	Kinds      map[string]uint64 `json:"violation_kinds,omitempty"`
	Details    []string          `json:"violation_details,omitempty"`
	// CheckerStats and CheckerViolation report the execution-stream
	// verifier, when one is attached.
	CheckerStats     *check.IncrementalStats `json:"checker,omitempty"`
	CheckerViolation string                  `json:"checker_violation,omitempty"`
	// Outages lists availability windows; Events the injected faults.
	Outages []Outage    `json:"outages,omitempty"`
	Events  []EventMark `json:"events,omitempty"`
}

// detailCap bounds the retained violation detail strings.
const detailCap = 64

// New builds a vulture.
func New(cfg Config) (*Vulture, error) {
	if len(cfg.Client.Addrs) == 0 {
		return nil, errors.New("vulture: no replica addresses")
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 2
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 2
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.Keys < cfg.Writers {
		cfg.Keys = cfg.Writers
	}
	if cfg.KeyPrefix == "" {
		cfg.KeyPrefix = "vult"
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.9
	}
	if cfg.Interval == 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	if cfg.OutageThreshold == 0 {
		cfg.OutageThreshold = 500 * time.Millisecond
	}
	v := &Vulture{cfg: cfg, kinds: make(map[string]uint64)}
	v.keys = make([]*keyState, cfg.Keys)
	for i := range v.keys {
		v.keys[i] = &keyState{}
	}
	return v, nil
}

// keyName returns the tagged key for index k.
func (v *Vulture) keyName(k int) string {
	return fmt.Sprintf("%s-%04d", v.cfg.KeyPrefix, k)
}

// encodeValue builds the self-describing value for (key, version):
// "key|version|crc32(key|version)".
func encodeValue(key string, version uint64) []byte {
	body := key + "|" + strconv.FormatUint(version, 10)
	sum := crc32.ChecksumIEEE([]byte(body))
	return []byte(body + "|" + strconv.FormatUint(uint64(sum), 16))
}

// decodeValue parses and verifies a tagged value, returning its
// version. A wrong key echo or checksum is corruption.
func decodeValue(key string, val []byte) (uint64, error) {
	s := string(val)
	i := strings.LastIndexByte(s, '|')
	if i < 0 {
		return 0, fmt.Errorf("no checksum separator in %q", s)
	}
	body, sumHex := s[:i], s[i+1:]
	sum, err := strconv.ParseUint(sumHex, 16, 32)
	if err != nil {
		return 0, fmt.Errorf("bad checksum %q", sumHex)
	}
	if crc32.ChecksumIEEE([]byte(body)) != uint32(sum) {
		return 0, fmt.Errorf("checksum mismatch on %q", s)
	}
	j := strings.LastIndexByte(body, '|')
	if j < 0 || body[:j] != key {
		return 0, fmt.Errorf("key echo %q does not match %q", body, key)
	}
	return strconv.ParseUint(body[j+1:], 10, 64)
}

// Event marks an injected fault on the timeline; subsequent
// availability windows are attributed to the latest mark.
func (v *Vulture) Event(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	at := time.Duration(0)
	if !v.started.IsZero() {
		at = time.Since(v.started)
	}
	v.events = append(v.events, EventMark{Name: name, AtSec: at.Seconds()})
}

// Run starts the workers and blocks until ctx is cancelled, then stops
// them and closes their sessions. Violations and counters accumulate in
// the vulture across the run; Report/Failed read them at any time.
func (v *Vulture) Run(ctx context.Context) error {
	v.mu.Lock()
	v.started = time.Now()
	v.lastOK = v.started
	v.mu.Unlock()

	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	worker := func(i int, run func(ctx context.Context, sess *client.Session, rng *rand.Rand)) {
		defer wg.Done()
		sess, err := client.New(v.cfg.Client)
		if err != nil {
			errOnce.Do(func() { firstErr = err })
			return
		}
		defer sess.Close()
		run(ctx, sess, rand.New(rand.NewSource(int64(i)*104729+1)))
	}
	for i := 0; i < v.cfg.Writers; i++ {
		wg.Add(1)
		go func(i int) {
			worker(i, func(ctx context.Context, s *client.Session, rng *rand.Rand) { v.writeLoop(ctx, s, rng, i) })
		}(i)
	}
	for i := 0; i < v.cfg.Readers; i++ {
		wg.Add(1)
		go func(i int) { worker(v.cfg.Writers+i, v.readLoop) }(i)
	}
	wg.Wait()
	return firstErr
}

// writeLoop is one writer worker: zipfian over its owned keys, each
// write the key's next version; occasionally it reads an owned key back
// (read-your-writes through the same session).
func (v *Vulture) writeLoop(ctx context.Context, sess *client.Session, rng *rand.Rand, worker int) {
	owned := make([]int, 0, len(v.keys)/v.cfg.Writers+1)
	for k := range v.keys {
		if k%v.cfg.Writers == worker {
			owned = append(owned, k)
		}
	}
	z := workload.NewZipfian(len(owned), v.cfg.Theta)
	for ctx.Err() == nil {
		k := owned[z.Sample(rng)]
		if rng.Intn(4) == 0 {
			v.probeRead(ctx, sess, k)
		} else {
			v.probeWrite(ctx, sess, k)
		}
		v.pause(ctx)
	}
}

// readLoop is one reader worker: zipfian reads over the whole tagged
// keyspace.
func (v *Vulture) readLoop(ctx context.Context, sess *client.Session, rng *rand.Rand) {
	z := workload.NewZipfian(len(v.keys), v.cfg.Theta)
	for ctx.Err() == nil {
		v.probeRead(ctx, sess, z.Sample(rng))
		v.pause(ctx)
	}
}

func (v *Vulture) pause(ctx context.Context) {
	t := time.NewTimer(v.cfg.Interval)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// probeWrite submits the key's next version.
func (v *Vulture) probeWrite(ctx context.Context, sess *client.Session, k int) {
	ver := v.beginWrite(k)
	err := sess.Put(ctx, v.keyName(k), encodeValue(v.keyName(k), ver))
	v.endWrite(k, ver, err)
}

// beginWrite reserves key k's next version.
func (v *Vulture) beginWrite(k int) uint64 {
	ks := v.keys[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.attempted++
	return ks.attempted
}

// endWrite records the outcome of writing version ver of key k. A
// failed write stays in `attempted` and joins `failed`: it may or may
// not execute, and a later read returning it is legitimate either way.
func (v *Vulture) endWrite(k int, ver uint64, err error) {
	v.writes.Add(1)
	v.noteOp(err)
	ks := v.keys[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if err != nil {
		if ks.failed == nil {
			ks.failed = make(map[uint64]struct{})
		}
		ks.failed[ver] = struct{}{}
		return
	}
	ks.acked = max(ks.acked, ver)
}

// probeRead reads a key and judges the result against the floor
// captured when the read was issued.
func (v *Vulture) probeRead(ctx context.Context, sess *client.Session, k int) {
	floor := v.readFloor(k)
	val, err := sess.Get(ctx, v.keyName(k))
	v.judgeRead(k, floor, val, err)
}

// readFloor is the lowest version a read of key k issued now may
// return, unless the write of the version it returns failed.
func (v *Vulture) readFloor(k int) uint64 {
	ks := v.keys[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return max(ks.acked, ks.observed)
}

// judgeRead verifies a completed read of key k, issued when the key's
// floor was floor, against that floor and the key's ceiling.
func (v *Vulture) judgeRead(k int, floor uint64, val []byte, err error) {
	ks := v.keys[k]
	key := v.keyName(k)
	v.reads.Add(1)
	if errors.Is(err, client.ErrNotFound) {
		v.notFound.Add(1)
		v.noteOp(nil)
		if floor > 0 {
			v.violate("stale-read", "%s: read not-found after version %d was known", key, floor)
		}
		return
	}
	v.noteOp(err)
	if err != nil {
		return
	}
	ver, derr := decodeValue(key, val)
	if derr != nil {
		v.violate("corrupt-value", "%s: %v", key, derr)
		return
	}
	ks.mu.Lock()
	_, failed := ks.failed[ver]
	stale := ver < floor && !failed
	phantom := ver > ks.attempted
	if !stale {
		ks.observed = max(ks.observed, ver)
	}
	ks.mu.Unlock()
	if stale {
		v.violate("stale-read", "%s: read version %d below known floor %d", key, ver, floor)
		return
	}
	if phantom {
		v.violate("phantom-version", "%s: read version %d, never written (attempted <= it at completion)", key, ver)
	}
}

// noteOp accounts one completed operation and maintains the
// availability timeline: a success after a long all-ops gap closes an
// outage window.
func (v *Vulture) noteOp(err error) {
	v.ops.Add(1)
	if err != nil {
		v.errs.Add(1)
		if errors.Is(err, client.ErrTimeout) {
			v.timeouts.Add(1)
		}
		return
	}
	now := time.Now()
	v.mu.Lock()
	if gap := now.Sub(v.lastOK); gap > v.cfg.OutageThreshold {
		o := Outage{
			StartSec:   v.lastOK.Sub(v.started).Seconds(),
			EndSec:     now.Sub(v.started).Seconds(),
			DurationMS: float64(gap.Nanoseconds()) / 1e6,
		}
		for i := len(v.events) - 1; i >= 0; i-- {
			if v.events[i].AtSec <= o.EndSec {
				o.After = v.events[i].Name
				break
			}
		}
		v.outages = append(v.outages, o)
	}
	v.lastOK = now
	v.mu.Unlock()
}

// violate records one consistency violation.
func (v *Vulture) violate(kind, format string, args ...any) {
	v.violations.Add(1)
	v.mu.Lock()
	v.kinds[kind]++
	if len(v.details) < detailCap {
		v.details = append(v.details, kind+": "+fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

// Report snapshots the vulture.
func (v *Vulture) Report() Report {
	r := Report{
		Ops:        v.ops.Load(),
		Errors:     v.errs.Load(),
		Timeouts:   v.timeouts.Load(),
		Reads:      v.reads.Load(),
		Writes:     v.writes.Load(),
		NotFound:   v.notFound.Load(),
		Violations: v.violations.Load(),
	}
	v.mu.Lock()
	if !v.started.IsZero() {
		r.RunningSec = time.Since(v.started).Seconds()
	}
	if len(v.kinds) > 0 {
		r.Kinds = make(map[string]uint64, len(v.kinds))
		for k, n := range v.kinds {
			r.Kinds[k] = n
		}
	}
	r.Details = append(r.Details, v.details...)
	r.Outages = append(r.Outages, v.outages...)
	r.Events = append(r.Events, v.events...)
	v.mu.Unlock()
	if c := v.cfg.Checker; c != nil {
		st := c.Stats()
		r.CheckerStats = &st
		if err := c.Err(); err != nil {
			r.CheckerViolation = err.Error()
		}
	}
	return r
}

// Failed returns a non-nil error when the vulture (or its attached
// checker) observed any consistency violation — the CI gate for soaks.
func (v *Vulture) Failed() error {
	r := v.Report()
	switch {
	case r.Violations > 0:
		first := ""
		if len(r.Details) > 0 {
			first = ": " + r.Details[0]
		}
		return fmt.Errorf("vulture: %d violation(s)%s", r.Violations, first)
	case r.CheckerViolation != "":
		return fmt.Errorf("vulture: execution stream: %s", r.CheckerViolation)
	default:
		return nil
	}
}

// Handler serves the report as JSON (mount beside the server's
// /metrics endpoint).
func (v *Vulture) Handler() http.Handler {
	return metrics.JSONHandler(func() any { return v.Report() })
}
