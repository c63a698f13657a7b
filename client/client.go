// Package client is the public client API of the replicated key-value
// service: a session-based, fully pipelined client for the binary wire
// protocol served by internal/cluster nodes.
//
// A Session holds one connection per replica it talks to. Every request
// carries a request id, so hundreds of commands can be in flight on a
// single connection; Do returns a Future immediately and the session's
// demultiplexer completes it when the reply arrives. Calls take a
// context.Context: its deadline is propagated to the serving replica,
// which fails the request with ErrTimeout if the command has not
// executed in time, and cancelling the context abandons the request
// client-side. Either way the command's outcome is unknown: it may still
// execute later, even after commands the session issued afterwards.
//
// With a topology, the session routes each command to a replica of the
// shard owning its first key (preferring the configured site) and fails
// over to the shard's other replicas when a connection cannot be
// established.
//
//	sess, err := client.Dial("10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001")
//	if err != nil { ... }
//	defer sess.Close()
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	if err := sess.Put(ctx, "greeting", []byte("hello")); err != nil { ... }
//	v, err := sess.Get(ctx, "greeting")
//
// Errors are typed: ErrTimeout for expired deadlines (client- or
// server-side), ErrNotFound for reads of missing keys, ErrClosed once
// the session (or the serving node) has shut down.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/topology"
)

// Typed errors returned by the session API. Wrapped errors carry
// detail; test with errors.Is. The sentinels live in internal/command,
// next to the wire error codes they decode from.
var (
	// ErrTimeout reports that a request's deadline expired before its
	// result arrived, whether the client's context fired or the serving
	// replica gave up. The outcome is unknown, not negative: the command
	// may already have executed, or may still execute later — possibly
	// after commands this session issued afterwards (a timed-out Put can
	// overwrite a later acknowledged Put of the same key).
	ErrTimeout = command.ErrTimeout
	// ErrNotFound reports a Get of a key with no value.
	ErrNotFound = command.ErrNotFound
	// ErrClosed reports a request against a closed session or a replica
	// that shut down.
	ErrClosed = command.ErrClosed
	// ErrWrongShard reports a command on a key whose shard is not
	// replicated by any dialed replica: the session's address set covers
	// only part of a partial-replication topology, and the key lives
	// outside it. The serving side returns the same sentinel when a
	// request reaches a process that does not replicate the key's shard.
	ErrWrongShard = command.ErrWrongShard
	// ErrDraining reports a submission to a replica that is gracefully
	// leaving the cluster; retry against another replica. Sessions with
	// Config.Refresh re-route automatically on the next refresh.
	ErrDraining = command.ErrDraining
)

// Config configures a Session.
type Config struct {
	// Addrs maps each replica's process id to its listen address.
	// Required.
	Addrs map[ids.ProcessID]string
	// Topo, when set, enables shard-aware routing: commands go to a
	// replica of the shard owning their first key. When nil, every
	// command goes to the lowest-id reachable replica.
	Topo *topology.Topology
	// Site is the preferred site when routing with a topology (the
	// replica co-located with the client).
	Site ids.SiteID
	// Prefer, when non-zero, is the session's home replica: it is tried
	// first for every command (before topology- or id-order routing).
	// Combined with RedialBackoff this gives sessions fail-over *and*
	// re-balance: while the home replica is down its dial backoff routes
	// requests to the others, and once it serves again — e.g. after a
	// crash-restart — new requests return to it.
	Prefer ids.ProcessID
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// RedialBackoff is how long a replica that failed to dial is skipped
	// before it is tried again (default 1s; negative disables). Without
	// it, every request issued while a replica is down would pay a full
	// dial timeout before failing over. Consecutive failures back off
	// exponentially from this base up to RedialBackoffMax, and every
	// wait is jittered into [wait/2, wait) so that the many sessions a
	// healed partition releases do not redial in one synchronized storm.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential redial backoff (default
	// 8×RedialBackoff; values below RedialBackoff, e.g. -1, pin the
	// backoff to the fixed RedialBackoff step).
	RedialBackoffMax time.Duration
	// RequestTimeout is the per-request deadline applied when the
	// context has none (default 10s; negative disables). The deadline
	// travels with the request, so the replica itself fails the request
	// with ErrTimeout if the command has not executed in time (the
	// command itself is not cancelled; see ErrTimeout).
	RequestTimeout time.Duration
	// Refresh enables membership-aware routing against deployments with
	// dynamic membership (internal/psmr): the session refetches the
	// cluster configuration from a live replica when a reply reports
	// draining/wrong-shard/shutdown or when every candidate replica is
	// unreachable, then re-routes across the new epoch — redirecting
	// around draining replicas and redialing slots whose replica was
	// replaced at a new address. Addrs seeds epoch 0; process ids are
	// stable across epochs (the quorum geometry is fixed for the
	// deployment's lifetime), only addresses and statuses change.
	Refresh bool
}

// Session is a client session. It is safe for concurrent use; requests
// issued concurrently (or via Do without waiting) are pipelined.
type Session struct {
	cfg   Config
	order []ids.ProcessID // routing preference without a topology

	//tempo:guard
	mu     sync.Mutex
	conns  map[ids.ProcessID]*conn
	closed bool
	// down records, per replica, until when dialing is skipped after a
	// dial failure and how many times in a row it failed (driving the
	// exponential backoff). Guarded by mu.
	down map[ids.ProcessID]backoff
	// rng jitters redial backoffs; guarded by mu.
	rng *rand.Rand
	// dialMu serializes dialing per replica so a burst of first
	// requests shares one connection instead of racing dials. Guarded
	// by mu (a membership refresh may add slots the initial address set
	// did not cover); only the mutexes themselves are contended.
	dialMu map[ids.ProcessID]*sync.Mutex

	// mintMu guards the session's pre-minted command-id block, consumed
	// by cross-shard submissions (see cross.go).
	mintMu   sync.Mutex
	mintNext ids.Dot
	mintLeft int

	// route is the swappable routing state: the per-replica addresses
	// and statuses of the latest installed configuration epoch (see
	// membership.go). Loaded lock-free on every request.
	route atomic.Pointer[route]
	// refreshMu serializes configuration refreshes; lastRefresh
	// (unix nanos) rate-limits the asynchronous ones.
	refreshMu   sync.Mutex
	lastRefresh atomic.Int64
}

// New creates a session from a full configuration.
func New(cfg Config) (*Session, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("client: no replica addresses")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RedialBackoff == 0 {
		cfg.RedialBackoff = time.Second
	}
	if cfg.RedialBackoff < 0 {
		cfg.RedialBackoff = 0
	}
	if cfg.RedialBackoffMax == 0 {
		cfg.RedialBackoffMax = 8 * cfg.RedialBackoff
	}
	if cfg.RedialBackoffMax < cfg.RedialBackoff {
		cfg.RedialBackoffMax = cfg.RedialBackoff
	}
	s := &Session{
		cfg:    cfg,
		conns:  make(map[ids.ProcessID]*conn),
		down:   make(map[ids.ProcessID]backoff),
		dialMu: make(map[ids.ProcessID]*sync.Mutex, len(cfg.Addrs)),
		rng:    rand.New(rand.NewSource(rand.Int63())),
	}
	for id := range cfg.Addrs {
		s.order = append(s.order, id)
		s.dialMu[id] = new(sync.Mutex)
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	s.route.Store(staticRoute(cfg.Addrs))
	return s, nil
}

// Dial creates a session against the replicas of a single-shard
// cluster; addrs[i] is the address of the replica with process id i+1
// (the -peers order of cmd/tempo-server).
func Dial(addrs ...string) (*Session, error) {
	m := make(map[ids.ProcessID]string, len(addrs))
	for i, a := range addrs {
		m[ids.ProcessID(i+1)] = a
	}
	return New(Config{Addrs: m})
}

// Close shuts the session down. In-flight requests fail with ErrClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.fail(ErrClosed)
	}
	return nil
}

// candidates returns the replicas that may serve a command on key, in
// routing-preference order: the session's home replica (Prefer) first,
// then — with a topology — the owning shard's replica at the session's
// site and the shard's other replicas, or every replica in id order
// without one. Replicas absent from the current route (no address, or
// fenced at the installed epoch) are dropped: an empty result means no
// routable replica serves the key's shard (ErrWrongShard). Replicas
// that are addressed but not accepting new submissions (joining or
// draining) are used only when no fully active one remains.
func (s *Session) candidates(key command.Key) []ids.ProcessID {
	rt := s.route.Load()
	t := s.cfg.Topo
	var base []ids.ProcessID
	if t == nil {
		base = rt.filter(s.order, true)
		if len(base) == 0 {
			base = rt.filter(s.order, false)
		}
	} else {
		shard := t.ShardOf(key)
		procs := t.ShardProcesses(shard)
		local := t.ProcessAt(s.cfg.Site, shard)
		base = rt.shardOrder(procs, local, true)
		if len(base) == 0 {
			base = rt.shardOrder(procs, local, false)
		}
	}
	home := s.cfg.Prefer
	if home == 0 || (len(base) > 0 && base[0] == home) {
		return base
	}
	found := false
	for _, p := range base {
		if p == home {
			found = true
			break
		}
	}
	if !found {
		return base // home replica does not serve this key's shard
	}
	out := make([]ids.ProcessID, 0, len(base))
	out = append(out, home)
	for _, p := range base {
		if p != home {
			out = append(out, p)
		}
	}
	return out
}

// backoff is one replica's redial state: skip dialing until `until`,
// after `fails` consecutive dial failures.
type backoff struct {
	until time.Time
	fails uint32
}

// inBackoff reports whether a replica's dial backoff is still running.
func (s *Session) inBackoff(pid ids.ProcessID, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.down[pid]
	return ok && now.Before(b.until)
}

// noteDialFailure extends a replica's redial backoff: exponential in
// the number of consecutive failures, capped at RedialBackoffMax, and
// jittered into [wait/2, wait) so sessions desynchronize their redials
// after a shared outage heals.
func (s *Session) noteDialFailure(pid ids.ProcessID) {
	if s.cfg.RedialBackoff <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.down[pid]
	if b.fails < 32 {
		b.fails++
	}
	wait := s.cfg.RedialBackoff << (b.fails - 1)
	if wait > s.cfg.RedialBackoffMax || wait < s.cfg.RedialBackoff { // cap (and shift overflow)
		wait = s.cfg.RedialBackoffMax
	}
	wait = wait/2 + time.Duration(s.rng.Int63n(int64(wait/2)+1))
	b.until = time.Now().Add(wait)
	s.down[pid] = b
}

// Do submits a command built from ops and returns a Future for its
// results, leaving the caller free to keep further commands in flight.
// The context's deadline (or the session's RequestTimeout) travels with
// the request. Routing failures try each candidate replica in turn.
//
// With a topology, ops spanning shards become one cross-shard command:
// it is submitted under a single pre-minted command id to a replica of
// its first accessed shard while watch registrations go to a replica of
// every other accessed shard, and the future completes with the
// per-shard result segments merged back into op order (see cross.go).
func (s *Session) Do(ctx context.Context, ops ...command.Op) *Future {
	f := newFuture()
	if len(ops) == 0 {
		f.fulfill(nil, errors.New("client: empty command"))
		return f
	}
	deadline, err := s.deadlineFor(ctx)
	if err != nil {
		f.fulfill(nil, err)
		return f
	}
	// A zero-alloc scan decides the common single-shard case; the sorted
	// shard set is only built on the cross-shard branch.
	if t := s.cfg.Topo; t != nil && crossesShards(t, ops) {
		s.doCross(ctx, f, deadline, ops, opsShards(t, ops))
		return f
	}
	s.sendRouted(f, ops[0].Key, func(c *conn) error {
		return c.send(f, deadline, ops)
	})
	return f
}

// deadlineFor resolves the request deadline from the context and the
// session's RequestTimeout (0 = none).
func (s *Session) deadlineFor(ctx context.Context) (time.Duration, error) {
	deadline := s.cfg.RequestTimeout
	if d, ok := ctx.Deadline(); ok {
		deadline = time.Until(d)
		if deadline <= 0 {
			return 0, fmt.Errorf("%w: %w", ErrTimeout, ctx.Err())
		}
	}
	if deadline < 0 {
		deadline = 0 // RequestTimeout < 0: no deadline
	}
	return deadline, nil
}

// sendRouted delivers one request to the first reachable replica that
// may serve the given key, failing f when none is. send enqueues the
// request frame on the chosen connection.
func (s *Session) sendRouted(f *Future, key command.Key, send func(c *conn) error) {
	cands := s.candidates(key)
	if len(cands) == 0 {
		f.fulfill(nil, fmt.Errorf("%w (key %q)", ErrWrongShard, key))
		return
	}
	s.sendCandidates(f, cands, send)
}

// sendCandidates tries each candidate replica in turn until one accepts
// the request, failing f when none does. When every candidate is
// unreachable and membership refresh is enabled, the stale replica list
// itself may be the problem (replicas moved or were replaced at a newer
// epoch): the session refetches the configuration from any live replica
// and, if a newer epoch was installed, retries the candidates once
// across it instead of failing over forever within the old addresses.
func (s *Session) sendCandidates(f *Future, cands []ids.ProcessID, send func(c *conn) error) {
	done, lastErr := s.tryCandidates(f, cands, send)
	if done {
		return
	}
	if s.refreshSync() {
		var err2 error
		if done, err2 = s.tryCandidates(f, cands, send); done {
			return
		}
		if err2 != nil {
			lastErr = err2
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no candidate replicas")
	}
	f.fulfill(nil, fmt.Errorf("client: no replica reachable: %w", lastErr))
}

// tryCandidates makes one routing pass over cands: the first sweep
// skips replicas in dial backoff (fail over fast while a replica is
// down); the second retries them anyway, so a fully backed-off
// candidate set still makes a real attempt instead of failing on stale
// knowledge. done reports that f was handed to a connection (or
// fulfilled with ErrClosed).
func (s *Session) tryCandidates(f *Future, cands []ids.ProcessID, send func(c *conn) error) (done bool, lastErr error) {
	try := func(pid ids.ProcessID) bool {
		c, err := s.conn(pid)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				f.fulfill(nil, err)
				return true
			}
			lastErr = err
			return false
		}
		if err := send(c); err != nil {
			lastErr = err
			return false
		}
		return true
	}
	now := time.Now()
	var skipped []ids.ProcessID
	for _, pid := range cands {
		if s.inBackoff(pid, now) {
			skipped = append(skipped, pid)
			continue
		}
		if try(pid) {
			return true, nil
		}
	}
	for _, pid := range skipped {
		if try(pid) {
			return true, nil
		}
	}
	return false, lastErr
}

// Execute submits a command and waits for its per-op results.
func (s *Session) Execute(ctx context.Context, ops ...command.Op) ([][]byte, error) {
	return s.Do(ctx, ops...).Wait(ctx)
}

// Put writes a key.
func (s *Session) Put(ctx context.Context, key string, value []byte) error {
	_, err := s.Execute(ctx, command.Op{Kind: command.Put, Key: command.Key(key), Value: value})
	return err
}

// Get reads a key. A missing key returns ErrNotFound, distinct from a
// present empty value.
func (s *Session) Get(ctx context.Context, key string) ([]byte, error) {
	vals, err := s.Execute(ctx, command.Op{Kind: command.Get, Key: command.Key(key)})
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 || vals[0] == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return vals[0], nil
}

// conn returns the live connection to pid, dialing if needed. Dials
// are serialized per replica, so a burst of first requests performs one
// dial and the rest pick up the fresh connection.
func (s *Session) conn(pid ids.ProcessID) (*conn, error) {
	live := func() (*conn, error, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return nil, ErrClosed, true
		}
		if c := s.conns[pid]; c != nil && !c.isDead() {
			return c, nil, true
		}
		return nil, nil, false
	}
	if c, err, ok := live(); ok {
		return c, err
	}
	addr, ok := s.route.Load().addrs[pid]
	if !ok {
		return nil, fmt.Errorf("client: no address for replica %d", pid)
	}
	s.mu.Lock()
	dmu := s.dialMu[pid]
	if dmu == nil { // slot first addressed by a membership refresh
		dmu = new(sync.Mutex)
		s.dialMu[pid] = dmu
	}
	s.mu.Unlock()
	dmu.Lock()
	defer dmu.Unlock()
	if c, err, ok := live(); ok { // someone dialed while we waited
		return c, err
	}
	nc, err := dial(addr, s.cfg.DialTimeout)
	if err != nil {
		s.noteDialFailure(pid)
		return nil, err
	}
	fresh := newConn(pid, addr, nc, s.noteWireErr, s.noteConnLoss)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		fresh.fail(ErrClosed)
		return nil, ErrClosed
	}
	delete(s.down, pid) // the replica is back: route to it again
	s.conns[pid] = fresh
	s.mu.Unlock()
	return fresh, nil
}
