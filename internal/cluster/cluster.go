// Package cluster runs replicas as real networked processes: one Node per
// replica, TCP peer links, a periodic tick loop for protocol timers, and
// the server half of the client protocol (submit a command, get the
// results once it executes locally).
//
// A Node drives one Replica — Tempo's process (internal/tempo); the
// paper's baselines run on the simulator only. Replica names everything
// the runtime uses, so a replica is checked at compile time: id minting,
// deferred apply on the node's executor goroutine, durability, the
// membership frontier, collection gauges and shard routing. Protocol
// messages cross the peer links through the self-describing binary frame
// layer: each message type registers its own tag and codec with
// proto.RegisterWire, so the node never inspects protocol messages. See
// docs/ARCHITECTURE.md "Baselines live in the simulator".
//
// There is one transport. Every listener, peer link and client
// connection belongs to a Group (group.go): a psmr site hosts one node
// per locally replicated shard in one Group, and a standalone Node
// started with Start/StartListener runs inside a private Group of one.
// Peer links carry batched, length-prefixed frames of (from, to)-tagged
// messages: the writer goroutine coalesces every message queued for a
// destination address into one framed write, so a tick burst costs one
// syscall. The listener serves exactly four dialects, told apart by a
// 4-byte magic: GroupMagic (peer links), ClientMagic2 (clients),
// SyncMagic (state catch-up) and membership.ConfigMagic (configuration
// exchange); see docs/ARCHITECTURE.md "Wire dialects".
//
// The client protocol (see clientproto.go) is binary and fully
// pipelined: every request carries a request id and an optional
// deadline, pending commands are tracked as id-tagged waiters completed
// by the protocol's execution path (no goroutine per request), and
// replies share the batched-writer machinery of the peer links. The
// session API over this protocol lives in the top-level client package.
//
// A node configured with a data directory (SetDurable; tempo-server
// -data-dir) survives crash-restart: the executor goroutine records
// applied commands in a write-ahead log with periodic state snapshots
// (internal/wal), durable watermark reservations keep the restarted
// replica from ever re-promising a timestamp or re-minting a command
// id, and a startup state-sync round fetches from peers whatever the
// local log missed. See durable.go and docs/ARCHITECTURE.md.
//
// The cmd/tempo-server and cmd/tempo-client binaries are thin wrappers
// around this package; TestLoopback runs a full cluster over localhost.
package cluster

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/membership"
	"tempo/internal/proto"
)

// defaultMaxFrameBytes is the default frame-body bound; see
// Node.frameLimit and Group.frameLimit.
const defaultMaxFrameBytes = 64 << 20

// Replica is the protocol instance a Node drives. tempo.Process
// implements it.
type Replica interface {
	proto.Replica
	proto.IDMinter
	proto.DeferredApplier
	proto.Durable
	proto.Joiner
	proto.GCReporter
	// Shard returns the one shard the replica replicates.
	Shard() ids.ShardID
	// OpsShard returns the shard owning every key of ops and true, or
	// false when the ops span shards. It must be safe to call
	// concurrently with protocol steps (client routing calls it outside
	// the protocol lock).
	OpsShard(ops []command.Op) (ids.ShardID, bool)
	// Stats returns the commands the replica committed as coordinator on
	// the fast and on the slow path, and the recovery ballots it started.
	// Called under the protocol lock.
	Stats() (fast, slow, recovered uint64)
}

// Node runs one replica.
type Node struct {
	id    ids.ProcessID
	rep   Replica
	addrs map[ids.ProcessID]string

	// shard is the (single) shard rep serves; with rep.OpsShard it drives
	// client-request routing and the batcher.
	shard ids.ShardID

	// transport carries outgoing protocol messages: the Group hosting the
	// node (AddNode installs it). own is the private Group of one that a
	// standalone node builds in StartListener — it owns the listener, the
	// peer links and the client connections, and dies with the node; it
	// is nil for a node hosted by someone else's Group. shaper is handed
	// to own at start (see SetShaper).
	transport Transport
	own       *Group
	shaper    *Shaper

	// syncPeers restricts the durable state-catch-up round to the
	// replicas of this node's own shard (nil: every address, the
	// single-shard default).
	syncPeers []ids.ProcessID

	// view, when set (SetMembership), supplies epoch-versioned peer
	// addressing and the fencing of Dead/Left slots; without one the
	// static addrs map rules forever. draining flips when Drain starts
	// (new submissions are rejected); joinClock/joinSeq are the
	// successor-safety floors of a joining replica (SetJoinFloor),
	// applied by StartHosted. See membership.go.
	view      *membership.View
	draining  atomic.Bool
	joinClock uint64
	joinSeq   uint64

	// linkMu guards lastRecv, the per-peer inbound-liveness stamps
	// behind the Links metrics snapshot.
	linkMu   sync.Mutex
	lastRecv map[ids.ProcessID]int64

	// stat collects the serving counters exposed by Stats.
	stat nodeStats

	//tempo:guard
	mu sync.Mutex // guards rep

	// The executor goroutine takes waitMu and execMu while protocol steps
	// hold mu; the pads keep the three locks on separate cache lines
	// (sharing one cost lan.sat about 5 % throughput on a 2-core VM).
	_ [64]byte

	// waiters maps a pending command id to the client requests riding on
	// it (one for a direct submission, many for a batched one). Each
	// member waiter is claimed (claimed flag flipped under waitMu)
	// exactly once — by local execution, by deadline expiry, by its
	// connection going away, or by shutdown — so a late result can never
	// reach a recycled request slot.
	//tempo:guard
	waitMu  sync.Mutex
	waiters map[ids.Dot]*pendingCmd
	// parked holds result values of executed cross-shard commands with
	// no local waiter, so a late watch still gets its segment (guarded
	// by waitMu; see completeOrPark in cross.go).
	parked map[ids.Dot]parkedResult
	// nPending mirrors len(waiters); updated under waitMu at every map
	// mutation and read lock-free by the batcher's idle check, keeping
	// the per-request submit path off waitMu.
	nPending atomic.Int64

	// batcher coalesces single-shard client submissions that arrive
	// within a flush window into one multi-op command (nil when batching
	// is disabled).
	batcher     *submitBatcher
	batchMaxOps int
	batchWindow time.Duration
	batchPace   time.Duration

	_ [64]byte // see the pad after mu

	// Deferred execution pipeline: protocol steps (under n.mu) only
	// append newly-stable commands to execQ, and a dedicated executor
	// goroutine applies them to the state machine and completes waiters —
	// the critical section shrinks to pure protocol state.
	//tempo:guard
	execMu   sync.Mutex
	execQ    []proto.Stable
	execKick chan struct{} // cap 1: wakes the executor
	// execObserver, when set before Start, is called by the executor for
	// every command just before it is applied (test hook: execution
	// order).
	execObserver func(proto.Stable)

	// dur, when set via SetDurable, persists applied commands and
	// protocol watermarks to a data directory (see durable.go); lastSeq
	// mirrors the highest minted command seq for its reservations
	// (written under n.mu in submitCmd, read under n.mu by
	// maybeReserveLocked). ready flips once recovery finishes: until
	// then the hosting group drops peer frames addressed to the node, so
	// peers restarting together can exchange state without any of them
	// accepting protocol traffic early.
	dur     *durability
	lastSeq uint64
	ready   atomic.Bool

	done   chan struct{}
	closed sync.Once
	tick   time.Duration
	// frameLimit bounds a state-sync frame body in both directions (the
	// corruption guard; peer and client frames are bounded by the hosting
	// group's limit). Fixed at construction.
	frameLimit uint64
}

// Batching defaults: one consensus round amortizes over everything a
// flush window (or a full batch) gathers. The window bounds the latency
// a lone request pays; the op cap bounds command size under load, when
// flushes are almost always size-triggered.
const (
	DefaultBatchOps    = 128
	DefaultBatchWindow = 200 * time.Microsecond
)

// NewNode creates a node for process id with the given replica and the
// listen addresses of every process.
func NewNode(id ids.ProcessID, rep Replica, addrs map[ids.ProcessID]string) *Node {
	return &Node{
		id:          id,
		rep:         rep,
		shard:       rep.Shard(),
		addrs:       addrs,
		waiters:     make(map[ids.Dot]*pendingCmd),
		parked:      make(map[ids.Dot]parkedResult),
		lastRecv:    make(map[ids.ProcessID]int64),
		done:        make(chan struct{}),
		tick:        5 * time.Millisecond,
		frameLimit:  defaultMaxFrameBytes,
		batchMaxOps: DefaultBatchOps,
		batchWindow: DefaultBatchWindow,
		execKick:    make(chan struct{}, 1),
	}
}

// Transport carries a node's outgoing protocol messages. A Group
// installs itself as the transport of every node it hosts, so they share
// its peer links (and its in-process fast path between co-hosted
// shards). Send must not block: implementations queue, and drop when a
// queue is full.
type Transport interface {
	Send(from, to ids.ProcessID, msg proto.Message)
}

// SetTransport routes the node's outgoing protocol messages through t.
// Group.AddNode calls it; call before Start.
func (n *Node) SetTransport(t Transport) { n.transport = t }

// SetShaper interposes sh on a standalone node's outgoing protocol
// messages: WAN emulation and runtime-controllable partitions for fault
// injection. Call before Start; the node hands sh to its private group.
// A node hosted by a Group is shaped by Group.SetShaper instead (there
// is one shaping hook per link). The node does not own sh and never
// closes it.
func (n *Node) SetShaper(sh *Shaper) { n.shaper = sh }

// SetExecObserver registers fn to be called by the executor for every
// command just before it is applied — an instrumentation hook for tests
// and exactly-once accounting (WAL replay and peer catch-up do not run
// through it, so within-incarnation double applies are observable).
// Call before Start.
func (n *Node) SetExecObserver(fn func(proto.Stable)) { n.execObserver = fn }

// SetSyncPeers restricts the durable state-catch-up round to the given
// processes (the replicas of this node's own shard). Without it every
// address is asked, which is only correct when all processes replicate
// the same shard. Call before Start.
func (n *Node) SetSyncPeers(peers []ids.ProcessID) { n.syncPeers = peers }

// SetBatch tunes server-side submit batching: client operations arriving
// within window are coalesced, per target shard, into one command of at
// most maxOps operations, so one consensus round carries many client
// requests. maxOps <= 1 or window <= 0 disables batching. Call before
// Start. The defaults are DefaultBatchOps/DefaultBatchWindow.
func (n *Node) SetBatch(maxOps int, window time.Duration) {
	n.batchMaxOps, n.batchWindow = maxOps, window
}

// SetBatchPace bounds the batcher's per-shard consensus round rate: at
// most one flush per pace interval per shard bucket, each carrying at
// most the batch's maxOps operations (the remainder waits for the next
// round). Pacing caps a shard's admission at maxOps/pace per serving
// replica — overload amortizes into full rounds at a fixed rate,
// bounding round fan-out and executor backlog, at a latency cost of up
// to pace per request. Zero (the default) disables pacing. Call before
// Start.
func (n *Node) SetBatchPace(pace time.Duration) { n.batchPace = pace }

// Start listens on the node's address, recovers durable state when a
// data directory is configured, and runs the tick loop. It returns once
// the listener is ready and recovery is complete.
func (n *Node) Start() error {
	ln, err := net.Listen("tcp", n.addrs[n.id])
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", n.addrs[n.id], err)
	}
	return n.StartListener(ln)
}

// StartListener runs the node on an already-bound listener; useful when
// ports are allocated dynamically and the full address map must be known
// before any node starts. The node becomes a private Group of one — the
// same sequence psmr runs for a site — so the group's listener is
// already answering state-sync and config requests while durable
// recovery (snapshot load, WAL replay, peer catch-up, watermark
// reservation) runs in StartHosted, and peers restarting at the same
// time can catch up from each other. The listener is closed on error.
func (n *Node) StartListener(ln net.Listener) error {
	// The processes whose state-sync requests this node may answer are
	// the ones it would itself ask: its shard's replicas (SetSyncPeers),
	// by default every address.
	peers := n.syncPeers
	if peers == nil {
		for pid := range n.addrs {
			peers = append(peers, pid)
		}
	}
	shardOf := make(map[ids.ProcessID]ids.ShardID, len(peers))
	for _, pid := range peers {
		shardOf[pid] = n.shard
	}
	g := NewGroup(n.addrs, shardOf)
	g.SetMembership(n.view)
	g.SetShaper(n.shaper)
	g.AddNode(n)
	n.own = g
	g.StartListener(ln)
	if err := n.StartHosted(); err != nil {
		g.Close()
		return err
	}
	g.SetReady()
	return nil
}

// StartHosted runs the node inside a Group, which owns the listener and
// hands the node its inbound traffic via Deliver. Durable recovery runs
// here — the group's listener must already be accepting, so restarting
// sites can answer each other's state-catch-up requests mid-recovery.
func (n *Node) StartHosted() error {
	if n.dur != nil {
		if err := n.recoverDurable(); err != nil {
			return fmt.Errorf("cluster: durable recovery: %w", err)
		}
	}
	// The join floor (if any) must precede the first protocol step; after
	// durable recovery it composes with the recovery-time reservations
	// (engines' Restore/JoinFloor take maxes).
	n.applyJoinFloor()
	n.rep.SetDeferredApply(true)
	go n.execLoop()
	if n.batchMaxOps > 1 && n.batchWindow > 0 {
		n.batcher = newSubmitBatcher(n, n.batchMaxOps, n.batchWindow, n.batchPace)
	}
	n.ready.Store(true)
	go n.tickLoop()
	return nil
}

// Addr returns the bound listen address ("" for a group-hosted node,
// which shares its group's listener).
func (n *Node) Addr() string {
	if n.own == nil {
		return ""
	}
	return n.own.Addr()
}

// Close shuts the node down. Pending client requests fail with a
// shutdown error (best effort — the reply races the connection
// teardown). A standalone node then closes its private group: the
// listener, every client connection (so sessions observe the shutdown
// promptly instead of waiting on a silent socket) and every peer link
// (so peers redial the node's successor instead of feeding a zombie).
func (n *Node) Close() {
	n.closed.Do(func() {
		close(n.done)
		// Claim every pending waiter — registered ones first, then the
		// requests still sitting in the batcher — and enqueue a shutdown
		// reply for each.
		n.waitMu.Lock()
		var pending []*waiter
		for id, pc := range n.waiters {
			delete(n.waiters, id)
			pending = append(pending, pc.claimAllLocked()...)
		}
		n.syncPendingLocked()
		n.waitMu.Unlock()
		if n.batcher != nil {
			pending = append(pending, n.batcher.close()...)
		}
		for _, w := range pending {
			w.fail(command.WireError{Code: command.ErrCodeShutdown, Msg: "node shutting down"})
		}
		if n.own != nil {
			n.own.Close()
		}
		if n.dur != nil && n.dur.log != nil {
			if err := n.dur.log.Close(); err != nil {
				log.Printf("cluster: node %d wal close: %v", n.id, err)
			}
		}
	})
}

// waiter tracks one pending client request until it is claimed by
// exactly one of: local execution, deadline expiry, connection teardown,
// or node shutdown. It completes by enqueuing a reply frame on its
// connection.
//
// A waiter is one member of a pendingCmd: a direct submission has one
// member owning the whole result, a batched submission has one member
// per client request, each owning the [off, off+nvals) segment of the
// command's per-op result values.
type waiter struct {
	deadline time.Time // zero = no deadline
	cc       *clientConn
	reqID    uint64

	// claimed is guarded by Node.waitMu; it holds the claim-once
	// discipline together wherever the waiter currently lives (batcher
	// bucket, waiters map, or in flight between the two).
	claimed bool
	// off/nvals locate this request's slice of the command's result
	// values; nvals < 0 means the whole result (direct submissions).
	// Written before the waiter is published under waitMu.
	off, nvals int
}

// pendingCmd is the set of client requests riding one submitted command.
type pendingCmd struct {
	members []*waiter
	// submitted records that the command was handed to the replica here
	// (false for entries created by a watch racing ahead of its
	// submission): a duplicated cross-shard submission for the same id
	// must register its waiter without re-running Submit.
	submitted bool
}

// claimAllLocked claims every unclaimed member and returns them. The
// caller holds Node.waitMu.
func (pc *pendingCmd) claimAllLocked() []*waiter {
	var out []*waiter
	for _, w := range pc.members {
		if !w.claimed {
			w.claimed = true
			out = append(out, w)
		}
	}
	return out
}

// allClaimedLocked reports whether no member is left to complete. The
// caller holds Node.waitMu.
func (pc *pendingCmd) allClaimedLocked() bool {
	for _, w := range pc.members {
		if !w.claimed {
			return false
		}
	}
	return true
}

// segment returns the waiter's slice of a command's result values,
// clipped to what the local shard actually produced.
func (w *waiter) segment(values [][]byte) [][]byte {
	if w.nvals < 0 {
		return values
	}
	lo := min(w.off, len(values))
	hi := min(w.off+w.nvals, len(values))
	return values[lo:hi]
}

// complete delivers an execution result. The caller has already claimed
// the waiter; complete never blocks.
func (w *waiter) complete(values [][]byte) {
	w.cc.reply(w.reqID, command.WireError{}, values)
}

// fail delivers a typed error. Same claiming contract as complete.
func (w *waiter) fail(e command.WireError) {
	w.cc.reply(w.reqID, e, nil)
}

// submit routes one client request. The shard split is explicit:
// single-shard ops go through the batcher (the common case — one
// consensus round then carries many requests); ops spanning shards
// take the direct cross-shard path, never the batcher — coalescing
// them with single-shard requests would change the combined command's
// shard set, and therefore its quorum cost and every batchmate's
// result segment. The cross-shard waiter owns the whole local result
// (the serving shard's segment); clients obtain the other shards'
// segments via watch registrations.
func (n *Node) submit(w *waiter, ops []command.Op) {
	if n.draining.Load() {
		// Graceful drain: the replica finishes what it accepted but
		// takes nothing new; the session fails over and refreshes its
		// configuration.
		if n.claimOne(w) {
			w.fail(command.WireError{Code: command.ErrCodeDraining, Msg: "replica draining; retry another replica"})
		}
		return
	}
	shard, single := n.rep.OpsShard(ops)
	if single && n.batcher != nil {
		n.batcher.add(shard, w, ops)
		return
	}
	if !single {
		n.stat.crossSubmitted.Add(1)
	}
	w.nvals = -1
	n.submitCmd([]*waiter{w}, ops)
}

// submitCmd registers the members and hands the combined operations to
// the replica as one command. The critical section is exactly the
// replica interaction — id minting and Submit — plus the waiter-map
// insert that must precede any completion; waiter allocation, batching
// and reply handling happen outside n.mu.
//
// The shutdown check shares waitMu with Close's sweep: either this
// registration happens before the sweep (which then claims it), or the
// sweep ran first — in which case n.done is observably closed here and
// the members are failed directly, never registered into a map no one
// will drain (a flush racing Close would otherwise strand its waiters
// and enqueue work for an executor that already exited).
func (n *Node) submitCmd(members []*waiter, ops []command.Op) {
	n.mu.Lock()
	id := n.rep.NextID()
	n.waitMu.Lock()
	select {
	case <-n.done:
		var doomed []*waiter
		for _, w := range members {
			if !w.claimed {
				w.claimed = true
				doomed = append(doomed, w)
			}
		}
		n.waitMu.Unlock()
		n.mu.Unlock()
		for _, w := range doomed {
			w.fail(command.WireError{Code: command.ErrCodeShutdown, Msg: "node shutting down"})
		}
		return
	default:
	}
	n.waiters[id] = &pendingCmd{members: members, submitted: true}
	n.syncPendingLocked()
	n.waitMu.Unlock()
	if id.Seq > n.lastSeq {
		n.lastSeq = id.Seq
	}
	n.stat.submittedCmds.Add(1)
	n.stat.submittedOps.Add(uint64(len(ops)))
	acts := n.rep.Submit(command.New(id, ops...))
	n.afterStepLocked(acts)
	n.mu.Unlock()
}

// pendingCmds returns how many submitted commands are awaiting
// execution; the batcher uses it to decide whether a request has
// anything worth waiting to coalesce with. Lock-free (see nPending).
func (n *Node) pendingCmds() int { return int(n.nPending.Load()) }

// syncPendingLocked refreshes the lock-free mirror of len(waiters);
// call before releasing waitMu after any waiters-map mutation.
func (n *Node) syncPendingLocked() { n.nPending.Store(int64(len(n.waiters))) }

// claimOne claims a single waiter wherever it lives; it reports whether
// the caller won (and therefore owns the completion).
func (n *Node) claimOne(w *waiter) bool {
	n.waitMu.Lock()
	won := !w.claimed
	w.claimed = true
	n.waitMu.Unlock()
	return won
}

// completeCmd claims and completes every remaining member of a command,
// handing each its own slice of the result values. Safe to call from
// the executor goroutine (no Node locks held by the caller).
func (n *Node) completeCmd(id ids.Dot, values [][]byte) {
	n.waitMu.Lock()
	pc := n.waiters[id]
	if pc == nil {
		n.waitMu.Unlock()
		return
	}
	delete(n.waiters, id)
	n.syncPendingLocked()
	done := pc.claimAllLocked()
	n.waitMu.Unlock()
	n.stat.completedReqs.Add(uint64(len(done)))
	for _, w := range done {
		w.complete(w.segment(values))
	}
}

// expireWaiters fails every waiter whose deadline has passed — member by
// member, so one slow request in a batch cannot take its batchmates down
// with it. The tick loop calls it, so deadlines are enforced at tick
// granularity.
func (n *Node) expireWaiters(now time.Time) {
	var expired []*waiter
	n.waitMu.Lock()
	for id, pc := range n.waiters {
		for _, w := range pc.members {
			if !w.claimed && !w.deadline.IsZero() && now.After(w.deadline) {
				w.claimed = true
				expired = append(expired, w)
			}
		}
		if pc.allClaimedLocked() {
			delete(n.waiters, id)
		}
	}
	n.syncPendingLocked()
	n.waitMu.Unlock()
	for _, w := range expired {
		w.fail(command.WireError{Code: command.ErrCodeTimeout, Msg: "deadline exceeded before execution"})
	}
}

// clientConn is the server half of one binary-protocol client
// connection. Replies are appended to a pending buffer and flushed by a
// dedicated writer goroutine, so completion paths (which run under
// n.mu) never block on the network, and replies completed in one
// protocol step coalesce into one write.
type clientConn struct {
	g    *Group
	conn net.Conn
	dead chan struct{} // closed when the read loop exits

	//tempo:guard
	mu      sync.Mutex
	closed  bool
	buf     []byte        // pending encoded reply frames
	scratch []byte        // reply-body staging, reused per frame
	kick    chan struct{} // cap 1: wakes the writer
}

// reply encodes and enqueues one reply frame.
func (cc *clientConn) reply(reqID uint64, werr command.WireError, values [][]byte) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return
	}
	cc.buf = AppendClientReply(cc.buf, &cc.scratch, reqID, werr, values)
	cc.mu.Unlock()
	select {
	case cc.kick <- struct{}{}:
	default:
	}
}

// writeLoop flushes pending reply frames; everything enqueued since the
// last wake-up goes out in one write. It exits with the connection
// (cc.dead), not with the node, so shutdown replies enqueued by
// Node.Close get a chance to flush before the socket closes.
func (cc *clientConn) writeLoop() {
	var free []byte
	for {
		select {
		case <-cc.kick:
		case <-cc.dead:
			return
		}
		cc.mu.Lock()
		out := cc.buf
		cc.buf = free[:0]
		cc.mu.Unlock()
		if len(out) == 0 {
			free = out
			continue
		}
		if _, err := cc.conn.Write(out); err != nil {
			cc.conn.Close()
			return
		}
		free = out[:0]
	}
}

// abandon tears the connection's server state down: the writer stops,
// and every waiter still pending for this connection — on any node the
// group hosts — is claimed and dropped (there is no one left to reply
// to).
func (cc *clientConn) abandon() {
	close(cc.dead)
	cc.mu.Lock()
	cc.closed = true
	cc.mu.Unlock()
	cc.g.untrackClientConn(cc)
	for _, n := range cc.g.list {
		n.sweepConn(cc)
	}
}

// Deliver feeds a decoded run of messages from one remote process into
// the replica under one lock acquisition; the hosting group calls it
// with the traffic it demultiplexed for this node. The decode already
// happened outside n.mu, so inbound work never extends the critical
// section. Actions are consumed after each step (the replica's action
// slices are scratch, valid only until its next step). Traffic from
// fenced slots (Dead/Left members whose id may already serve under a
// successor) drops here, before any protocol state sees it.
func (n *Node) Deliver(from ids.ProcessID, msgs []proto.Message) {
	if len(msgs) == 0 || n.fenced(from) {
		return
	}
	n.noteRecv(from)
	n.mu.Lock()
	for _, msg := range msgs {
		acts := n.rep.Handle(from, msg)
		n.afterStepLocked(acts)
	}
	n.mu.Unlock()
}

func (n *Node) tickLoop() {
	t := time.NewTicker(n.tick)
	defer t.Stop()
	start := time.Now()
	lastSweep := start
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
			n.mu.Lock()
			acts := n.rep.Tick(time.Since(start))
			n.afterStepLocked(acts)
			n.sampleGC()
			n.mu.Unlock()
			now := time.Now()
			n.expireWaiters(now)
			if now.Sub(lastSweep) >= time.Second {
				lastSweep = now
				n.sweepParked(now)
			}
		}
	}
}

// afterStepLocked sends actions and routes newly-stable commands to the
// execution pipeline. Callers hold n.mu. The step only enqueues onto
// execQ; the executor goroutine applies and completes waiters off the
// lock.
func (n *Node) afterStepLocked(acts []proto.Action) {
	// The reservation check runs before any of the step's messages are
	// released to the (concurrently draining) link writers: when the
	// step bumped the clock past the durable reservation, the covering
	// RecMark must hit the disk before a promise above it can reach a
	// peer.
	n.maybeReserveLocked()
	for _, a := range acts {
		for _, to := range a.To {
			n.transport.Send(n.id, to, a.Msg)
		}
	}
	st := n.rep.DrainStable()
	if len(st) == 0 {
		return
	}
	n.execMu.Lock()
	n.execQ = append(n.execQ, st...)
	n.execMu.Unlock()
	select {
	case n.execKick <- struct{}{}:
	default:
	}
}

// execLoop is the per-replica executor: it drains the timestamp-ordered
// delivery queue filled by protocol steps, applies each stable command
// to the state machine, and completes the client requests riding on it.
// kvstore work and reply encoding thus never run under n.mu.
func (n *Node) execLoop() {
	var local []proto.Stable
	for {
		select {
		case <-n.execKick:
		case <-n.done:
			return
		}
		n.execMu.Lock()
		local, n.execQ = n.execQ, local[:0]
		n.execMu.Unlock()
		for _, it := range local {
			if n.execObserver != nil {
				n.execObserver(it)
			}
			res := n.rep.ApplyStable(it.Cmd, it.TS)
			n.stat.appliedCmds.Add(1)
			// The WAL record precedes the replies: with a zero sync
			// interval the command is durable before any client sees its
			// result; with a batching interval the record is at most one
			// interval behind (see durability.recordApply). Cross-shard
			// applies ride the same record path — the final timestamp it
			// persists is already the max across the accessed shards.
			if n.dur != nil {
				n.dur.recordApply(it)
			}
			if it.Multi {
				n.completeOrPark(it.Cmd, res.Values)
			} else {
				n.completeCmd(it.Cmd.ID, res.Values)
			}
		}
		clear(local) // drop command refs until the next swap
	}
}
