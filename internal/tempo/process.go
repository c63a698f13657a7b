package tempo

import (
	"fmt"
	"sync"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/kvstore"
	"tempo/internal/promise"
	"tempo/internal/proto"
	"tempo/internal/topology"
)

// Config tunes a Tempo process. The zero value gets sensible defaults.
type Config struct {
	// PromiseInterval is how often MPromises are broadcast (Algorithm 2,
	// line 44). Default 5ms.
	PromiseInterval time.Duration
	// RecoveryTimeout is the fallback for a command whose coordinator is
	// alive but stuck (a lost ack, a cut link): once the command has been
	// pending this long, the shard leader starts recovery for it. A
	// command whose coordinator has gone silent — no message from it,
	// MPromises heartbeats included, while other ranks were heard — is
	// recovered much sooner, after max(10 × PromiseInterval,
	// RecoveryTimeout/10) of silence (see recoverSilent). Default 500ms;
	// failure-free runs set an hour, which puts both out of reach.
	RecoveryTimeout time.Duration
	// ResendInterval is how often pending payloads are re-broadcast
	// (Appendix B, line 77). Default equals RecoveryTimeout.
	ResendInterval time.Duration
	// DisableMBump turns off the "faster stability" MBump optimization
	// of Algorithm 3 (used by the ablation benchmarks).
	DisableMBump bool
	// DisablePiggyback turns off attached-promise piggybacking on
	// MCommit (§3.2 optimization; ablation only). Stability then relies
	// solely on periodic MPromises.
	DisablePiggyback bool
	// CommitRequestDelay is how long an attached promise for an unknown
	// command may linger before the process asks for its commit
	// (Appendix B suggests delaying MCommitRequest "in the hope that
	// such information will be received anyway"). Default
	// RecoveryTimeout/4; commit requests are also rate-limited per
	// command at this interval.
	CommitRequestDelay time.Duration
	// RetainLog keeps the cmdInfo of a command after it is collected
	// (executed at every replica of the shard; see collectExecuted).
	// Tests and debugging tools use it; production deployments should
	// leave it off so memory stays bounded.
	RetainLog bool
}

func (c Config) withDefaults() Config {
	if c.PromiseInterval == 0 {
		c.PromiseInterval = 5 * time.Millisecond
	}
	if c.RecoveryTimeout == 0 {
		c.RecoveryTimeout = 500 * time.Millisecond
	}
	if c.ResendInterval == 0 {
		c.ResendInterval = c.RecoveryTimeout
	}
	if c.CommitRequestDelay == 0 {
		c.CommitRequestDelay = c.RecoveryTimeout / 4
	}
	return c
}

// cmdInfo is the per-command state of Algorithm 5 (Table 3) plus the
// coordinator-side bookkeeping.
//
// The coordinator bookkeeping is rank-indexed (dense slices of length r,
// index rank-1, zero value = absent) rather than keyed by process id, and
// cmdInfo structs are recycled through a sync.Pool once a command is
// garbage-collected, so the steady-state hot path allocates no per-command
// maps. Timestamps and ballots are >= 1, so 0 is a safe absence sentinel.
type cmdInfo struct {
	cmd     *command.Command
	shards  []ids.ShardID
	quorums Quorums
	phase   Phase
	ts      uint64 // shard-local timestamp (proposal or consensus value)
	bal     ids.Ballot
	abal    ids.Ballot

	// Coordinator state (initial or recovery), allocated lazily — most
	// commands are never coordinated here — and retained across pool
	// round-trips.
	proposals     []uint64 // MProposeAck replies by rank-1; 0 = none
	nProposals    int
	ackDetached   [][2]uint64 // piggybacked detached ranges by rank-1
	consensusFrom []bool      // MConsensusAck seen, by rank-1
	nConsensusAck int
	recAcks       []*MRecAck // recovery acks by rank-1
	nRecAcks      int
	coordBallot   ids.Ballot // ballot this process is coordinating, 0 if none
	slowPath      bool

	// Commit state: parallel slices over the (few) shards a command
	// accesses; linear scans beat map overhead at this size.
	commitShards []ids.ShardID
	commitVals   []uint64
	finalTS      uint64
	// attachedMine is this process's own attached promise for the
	// command: 0 if it never proposed, and again once collection folded
	// the promise into the detached set.
	attachedMine uint64

	// Execution state (multi-shard): shards that signalled stability.
	stableShards []ids.ShardID
	sentStable   bool

	enqueued time.Duration // when the command became known (for recovery)
}

// commitFor returns the committed timestamp recorded for a shard.
func (ci *cmdInfo) commitFor(s ids.ShardID) (uint64, bool) {
	for i, cs := range ci.commitShards {
		if cs == s {
			return ci.commitVals[i], true
		}
	}
	return 0, false
}

// setCommit records a shard's committed timestamp; the first write wins,
// as with the map it replaces.
func (ci *cmdInfo) setCommit(s ids.ShardID, ts uint64) {
	if _, ok := ci.commitFor(s); !ok {
		ci.commitShards = append(ci.commitShards, s)
		ci.commitVals = append(ci.commitVals, ts)
	}
}

// markStable records that a shard signalled timestamp stability.
func (ci *cmdInfo) markStable(s ids.ShardID) {
	for _, x := range ci.stableShards {
		if x == s {
			return
		}
	}
	ci.stableShards = append(ci.stableShards, s)
}

// stableAt reports whether a shard signalled stability.
func (ci *cmdInfo) stableAt(s ids.ShardID) bool {
	for _, x := range ci.stableShards {
		if x == s {
			return true
		}
	}
	return false
}

func (ci *cmdInfo) committedAllShards() bool {
	if len(ci.shards) == 0 {
		return false
	}
	for _, s := range ci.shards {
		if _, ok := ci.commitFor(s); !ok {
			return false
		}
	}
	return true
}

// reset clears a cmdInfo for pool reuse, keeping the backing arrays of
// the lazily-allocated coordinator slices.
func (ci *cmdInfo) reset() {
	ci.cmd = nil
	ci.shards = nil
	ci.quorums = nil
	ci.phase = PhaseStart
	ci.ts, ci.finalTS, ci.attachedMine = 0, 0, 0
	ci.bal, ci.abal, ci.coordBallot = 0, 0, 0
	ci.slowPath, ci.sentStable = false, false
	for i := range ci.proposals {
		ci.proposals[i] = 0
	}
	ci.nProposals = 0
	for i := range ci.ackDetached {
		ci.ackDetached[i] = [2]uint64{}
	}
	for i := range ci.consensusFrom {
		ci.consensusFrom[i] = false
	}
	ci.nConsensusAck = 0
	for i := range ci.recAcks {
		ci.recAcks[i] = nil
	}
	ci.nRecAcks = 0
	ci.commitShards = ci.commitShards[:0]
	ci.commitVals = ci.commitVals[:0]
	ci.stableShards = ci.stableShards[:0]
	ci.enqueued = 0
}

// Process is a Tempo replica of one shard at one process. It implements
// proto.Replica. It is not safe for concurrent use; runtimes serialize
// calls.
type Process struct {
	id    ids.ProcessID
	shard ids.ShardID
	rank  ids.Rank
	r, f  int
	topo  *topology.Topology
	cfg   Config

	shardProcs  []ids.ProcessID
	shardOthers []ids.ProcessID // shardProcs minus self (gossip targets)
	// rankOf is indexed by process id (dense, small); 0 = not in shard.
	rankOf []ids.Rank

	clock    uint64
	detached *promise.IntervalSet // own detached promises (for broadcast)
	// attached queues this process's attached promises for the MPromises
	// gossip, in the order they were issued — ascending timestamps, since
	// every proposal moves the clock. The promise itself lives in the
	// command's cmdInfo.attachedMine; an entry whose command no longer
	// holds it (folded by collect) is dead and dropped when a broadcast
	// next scans past it.
	attached fifo[AttachedWire]
	tracker  *promise.Tracker

	// cmds holds every command between the first message that names it
	// and its collection. pendingQ lists, in creation order, the ids
	// that may still be pending, for periodicRecovery; prunePending drops
	// the ones that committed, whenever the queue's array is full.
	cmds     map[ids.Dot]*cmdInfo
	pendingQ []ids.Dot
	nextSeq  uint64
	// seenSeq[rank-1] is the highest command-sequence number observed
	// from the rank's process — the id half of the membership frontier
	// (see ObservedFrom).
	seenSeq []uint64
	leader  ids.Rank
	crashed bool
	now     time.Duration

	// Executor state.
	committed  tsDotHeap
	ready      []tsDot // stable commands waiting (in order) for execution
	executedWM TSWatermark
	// executed logs the commands this process executed and still holds
	// state for, in execution order; collectExecuted pops the prefix that
	// every replica of the shard has executed. peerWM[rank-1] is the
	// executed watermark last gossiped by that rank (zero until it
	// reports; the own slot is unused).
	executed fifo[tsDot]
	peerWM   []TSWatermark
	store    *kvstore.Store
	// executedOut collects inline executions; in deferred-apply mode
	// stableOut collects execution-stable commands for the runtime to
	// apply off the protocol lock instead (see proto.DeferredApplier).
	executedOut []proto.Executed
	stableOut   []proto.Stable
	deferApply  bool

	lastPromises time.Duration
	lastResend   time.Duration
	// The failure detector (see recoverSilent): heard[rank-1] records
	// that a message from the rank arrived since the previous Tick, and
	// silentSince[rank-1] is the last Tick that found it set; lastHeard
	// is the last Tick that found any set. suspectAfter is the silence
	// after which a rank is suspected, and lastSilentScan the last Tick
	// that looked for commands of suspected coordinators.
	heard          []bool
	silentSince    []time.Duration
	lastHeard      time.Duration
	suspectAfter   time.Duration
	lastSilentScan time.Duration
	// uncommittedSeen tracks when an attached promise for a not-locally-
	// committed command was first observed, and lastCommitReq rate-limits
	// MCommitRequest per command (Appendix B liveness, delayed).
	uncommittedSeen map[ids.Dot]time.Duration
	lastCommitReq   map[ids.Dot]time.Duration
	rankToProc      []ids.ProcessID // indexed by rank-1

	// ciPool recycles cmdInfo structs of garbage-collected commands.
	ciPool sync.Pool
	// routeQueue/routeOut are per-step scratch buffers reused by route;
	// see the proto.Replica contract on action-slice lifetime.
	routeQueue []proto.Action
	routeOut   []proto.Action

	// stats
	statFast, statSlow, statRecovered uint64
}

var _ proto.Replica = (*Process)(nil)
var _ proto.LeaderAware = (*Process)(nil)
var _ proto.Crashable = (*Process)(nil)
var _ proto.DeferredApplier = (*Process)(nil)
var _ proto.GCReporter = (*Process)(nil)

// New creates the Tempo replica for process id within the topology.
func New(id ids.ProcessID, topo *topology.Topology, cfg Config) *Process {
	pi := topo.Process(id)
	if pi.ID != id {
		panic(fmt.Sprintf("tempo: unknown process %d", id))
	}
	p := &Process{
		id:              id,
		shard:           pi.Shard,
		rank:            pi.Rank,
		r:               topo.R(),
		f:               topo.F(),
		topo:            topo,
		cfg:             cfg.withDefaults(),
		shardProcs:      topo.ShardProcesses(pi.Shard),
		detached:        &promise.IntervalSet{},
		tracker:         promise.NewTracker(topo.R()),
		cmds:            make(map[ids.Dot]*cmdInfo),
		peerWM:          make([]TSWatermark, topo.R()),
		heard:           make([]bool, topo.R()),
		silentSince:     make([]time.Duration, topo.R()),
		uncommittedSeen: make(map[ids.Dot]time.Duration),
		lastCommitReq:   make(map[ids.Dot]time.Duration),
		rankToProc:      make([]ids.ProcessID, topo.R()),
		seenSeq:         make([]uint64, topo.R()),
		store:           kvstore.New(),
		leader:          1,
	}
	// Ten missed heartbeats, and never under a tenth of the fallback.
	p.suspectAfter = max(10*p.cfg.PromiseInterval, p.cfg.RecoveryTimeout/10)
	maxID := ids.ProcessID(0)
	for _, q := range p.shardProcs {
		if q > maxID {
			maxID = q
		}
	}
	p.rankOf = make([]ids.Rank, maxID+1)
	for _, q := range p.shardProcs {
		r := topo.Process(q).Rank
		p.rankOf[q] = r
		p.rankToProc[r-1] = q
		if q != p.id {
			p.shardOthers = append(p.shardOthers, q)
		}
	}
	return p
}

// rankOfProc returns the shard-local rank of a process (0 if the process
// does not replicate this shard).
func (p *Process) rankOfProc(q ids.ProcessID) ids.Rank {
	if int(q) >= len(p.rankOf) {
		return 0
	}
	return p.rankOf[q]
}

// ID implements proto.Replica.
func (p *Process) ID() ids.ProcessID { return p.id }

// Shard returns the shard this replica serves.
func (p *Process) Shard() ids.ShardID { return p.shard }

// Rank returns the shard-local rank.
func (p *Process) Rank() ids.Rank { return p.rank }

// Clock returns the current logical clock (for tests and metrics).
func (p *Process) Clock() uint64 { return p.clock }

// Store returns the replica's key-value store.
func (p *Process) Store() *kvstore.Store { return p.store }

// Stats returns (fast-path commits, slow-path commits) decided by this
// process as coordinator, and the recovery ballots it started.
func (p *Process) Stats() (fast, slow, recovered uint64) {
	return p.statFast, p.statSlow, p.statRecovered
}

// SetLeader implements proto.LeaderAware: the Ω failure detector output
// for this shard.
func (p *Process) SetLeader(rank ids.Rank) { p.leader = rank }

// Crash implements proto.Crashable.
func (p *Process) Crash() { p.crashed = true }

// NextID mints a fresh command identifier for a client of this process.
func (p *Process) NextID() ids.Dot {
	p.nextSeq++
	return ids.Dot{Source: p.id, Seq: p.nextSeq}
}

// OpsShard returns the shard owning every key of ops and true, or false
// when the ops span shards. Runtimes use it to coalesce single-shard
// client operations into one command (batching ops of different shards
// would turn them into a multi-shard command, changing both the quorum
// cost and the per-op result set). It reads only immutable topology, so
// it is safe to call concurrently with protocol steps.
func (p *Process) OpsShard(ops []command.Op) (ids.ShardID, bool) {
	if len(ops) == 0 {
		return 0, false
	}
	s := p.topo.ShardOf(ops[0].Key)
	for _, op := range ops[1:] {
		if p.topo.ShardOf(op.Key) != s {
			return 0, false
		}
	}
	return s, true
}

// Submit implements proto.Replica (Algorithm 1, line 1). The command's id
// must come from NextID of this process.
func (p *Process) Submit(cmd *command.Command) []proto.Action {
	if p.crashed {
		return nil
	}
	shards := p.topo.CmdShards(cmd)
	coords := p.topo.ClosestPerShard(p.id, shards)
	quorums := make(Quorums, len(shards))
	fqSize := topology.TempoFastQuorumSize(p.r, p.f)
	for i, s := range shards {
		quorums[s] = p.topo.FastQuorum(coords[i], fqSize)
	}
	sub := &MSubmit{ID: cmd.ID, Cmd: cmd, Quorums: quorums}
	return p.route([]proto.Action{proto.Send(sub, coords...)})
}

// Handle implements proto.Replica.
func (p *Process) Handle(from ids.ProcessID, msg proto.Message) []proto.Action {
	if p.crashed {
		return nil
	}
	if r := p.rankOfProc(from); r != 0 {
		p.heard[r-1] = true
	}
	return p.route(p.handle(from, msg))
}

// route delivers self-addressed actions immediately (the paper assumes
// self-messages are delivered instantaneously) and returns the remaining
// external sends. The returned slice is scratch space owned by the
// Process: it is valid only until the next Submit/Handle/Tick call (the
// proto.Replica contract; all runtimes consume actions synchronously).
func (p *Process) route(acts []proto.Action) []proto.Action {
	queue := append(p.routeQueue[:0], acts...)
	// The previous step's returned actions are dead by contract; zero the
	// backing array so it does not pin their message payloads.
	prev := p.routeOut[:cap(p.routeOut)]
	clear(prev)
	out := prev[:0]
	for i := 0; i < len(queue); i++ {
		a := queue[i]
		self := false
		nOthers := 0
		for _, to := range a.To {
			if to == p.id {
				self = true
			} else {
				nOthers++
			}
		}
		if nOthers == len(a.To) {
			out = append(out, a) // common case: no self-send, reuse a.To
		} else if nOthers > 0 {
			others := make([]ids.ProcessID, 0, nOthers)
			for _, to := range a.To {
				if to != p.id {
					others = append(others, to)
				}
			}
			out = append(out, proto.Action{To: others, Msg: a.Msg})
		}
		if self {
			queue = append(queue, p.handle(p.id, a.Msg)...)
		}
	}
	// Everything queued was handled; zero the backing array so recycled
	// slots do not pin handled messages until the next burst.
	queue = queue[:cap(queue)]
	clear(queue)
	p.routeQueue = queue[:0]
	p.routeOut = out
	return out
}

func (p *Process) handle(from ids.ProcessID, msg proto.Message) []proto.Action {
	// A command whose state was collected after it executed everywhere is
	// done here; late messages for it (e.g. a commit replay answering an
	// old MCommitRequest) must not recreate state, or the command would
	// execute twice. The remaining per-command messages only look state
	// up, so they fall through to handlers that find none.
	var id ids.Dot
	switch m := msg.(type) {
	case *MPayload:
		id = m.ID
	case *MPropose:
		id = m.ID
	case *MCommit:
		id = m.ID
	case *MConsensus:
		id = m.ID
	case *MBump:
		id = m.ID
	case *MStable:
		id = m.ID
	}
	if !id.IsZero() {
		if _, live := p.cmds[id]; !live && p.tracker.Forgotten(id) {
			return nil
		}
	}
	var acts []proto.Action
	switch m := msg.(type) {
	case *MSubmit:
		acts = p.onMSubmit(m)
	case *MPayload:
		acts = p.onMPayload(m)
	case *MPropose:
		acts = p.onMPropose(from, m)
	case *MProposeAck:
		acts = p.onMProposeAck(from, m)
	case *MBump:
		acts = p.onMBump(m)
	case *MCommit:
		acts = p.onMCommit(m)
	case *MConsensus:
		acts = p.onMConsensus(from, m)
	case *MConsensusAck:
		acts = p.onMConsensusAck(from, m)
	case *MRec:
		acts = p.onMRec(from, m)
	case *MRecAck:
		acts = p.onMRecAck(from, m)
	case *MRecNAck:
		acts = p.onMRecNAck(m)
	case *MCommitRequest:
		acts = p.onMCommitRequest(from, m)
	case *MPromises:
		acts = p.onMPromises(m)
	case *MStable:
		acts = p.onMStable(m)
	default:
		panic(fmt.Sprintf("tempo: unknown message %T", msg))
	}
	return append(acts, p.advanceExecution()...)
}

// info returns (creating if needed) the state for a command id.
func (p *Process) info(id ids.Dot) *cmdInfo {
	p.noteDot(id)
	ci, ok := p.cmds[id]
	if !ok {
		if v := p.ciPool.Get(); v != nil {
			ci = v.(*cmdInfo)
		} else {
			ci = &cmdInfo{}
		}
		ci.phase = PhaseStart
		ci.enqueued = p.now
		p.cmds[id] = ci
		if len(p.pendingQ) == cap(p.pendingQ) {
			p.prunePending() // before append grows the array
		}
		p.pendingQ = append(p.pendingQ, id)
	}
	return ci
}

// prunePending drops from pendingQ the commands that are past the
// pending phases (or collected), keeping the order of the rest. info
// prunes only when the array is full, and the array doubles when a prune
// frees less than half of it, so pruning costs O(1) per command and the
// queue stays within twice the most commands ever pending at once,
// whatever the recovery period.
func (p *Process) prunePending() {
	kept := p.pendingQ[:0]
	for _, id := range p.pendingQ {
		// PhaseStart is a command known only by an MCommit, MConsensus or
		// MStable so far: not pending yet, but it may become so.
		if ci := p.cmds[id]; ci != nil && (ci.phase.pending() || ci.phase == PhaseStart) {
			kept = append(kept, id)
		}
	}
	p.pendingQ = kept
}

// learnPayload records the payload and quorums if not yet known.
func (p *Process) learnPayload(ci *cmdInfo, cmd *command.Command, q Quorums) {
	if ci.cmd == nil && cmd != nil {
		ci.cmd = cmd
		ci.shards = p.topo.CmdShards(cmd)
	}
	if ci.quorums == nil && q != nil {
		ci.quorums = q
	}
}

// onMSubmit makes this process the command's coordinator at its shard
// (Algorithm 1, line 5).
func (p *Process) onMSubmit(m *MSubmit) []proto.Action {
	t := p.clock + 1
	fq := m.Quorums[p.shard]
	prop := &MPropose{ID: m.ID, Cmd: m.Cmd, Quorums: m.Quorums, TS: t}
	acts := []proto.Action{proto.Send(prop, fq...)}
	var rest []ids.ProcessID
	for _, q := range p.shardProcs {
		in := false
		for _, x := range fq {
			if x == q {
				in = true
				break
			}
		}
		if !in {
			rest = append(rest, q)
		}
	}
	if len(rest) > 0 {
		acts = append(acts, proto.Send(&MPayload{ID: m.ID, Cmd: m.Cmd, Quorums: m.Quorums}, rest...))
	}
	return acts
}

// onMPayload stores the payload (line 9).
func (p *Process) onMPayload(m *MPayload) []proto.Action {
	ci := p.info(m.ID)
	p.learnPayload(ci, m.Cmd, m.Quorums)
	if ci.phase == PhaseStart {
		ci.phase = PhasePayload
	}
	p.maybeFinishCommit(m.ID, ci)
	return nil
}

// onMPropose computes a timestamp proposal (line 12).
func (p *Process) onMPropose(from ids.ProcessID, m *MPropose) []proto.Action {
	ci := p.info(m.ID)
	if ci.phase != PhaseStart {
		// Already past start (e.g. recovery touched the command first):
		// the MPropose precondition fails and we must not propose.
		return nil
	}
	p.learnPayload(ci, m.Cmd, m.Quorums)
	ci.phase = PhasePropose
	ci.ts = p.proposal(m.ID, ci, m.TS)
	ack := &MProposeAck{ID: m.ID, TS: ci.ts}
	// Piggyback the whole detached run below the proposal, not only the
	// range this proposal skipped: every timestamp since this process's
	// previous attached promise is detached, so the run also carries the
	// bumps that commits and consensus rounds caused in between, which
	// the coordinator would otherwise learn from the next MPromises only.
	if lo, ok := p.detached.RunEndingAt(ci.ts - 1); ok {
		ack.DetachedLo, ack.DetachedHi = lo, ci.ts-1
	}
	acts := []proto.Action{proto.Send(ack, from)}
	// Faster stability for multi-shard commands (Algorithm 3, line 68):
	// tell the nearby replicas of sibling shards about our proposal.
	if !p.cfg.DisableMBump && len(ci.shards) > 1 {
		for _, q := range p.topo.ClosestPerShard(p.id, ci.shards) {
			if q != p.id {
				acts = append(acts, proto.Send(&MBump{ID: m.ID, TS: ci.ts}, q))
			}
		}
	}
	return acts
}

// proposal implements lines 34-39: computes a timestamp proposal, records
// the attached promise and the detached promises below it, and bumps the
// clock. A command proposes at most once (the callers' phase checks).
func (p *Process) proposal(id ids.Dot, ci *cmdInfo, m uint64) uint64 {
	t := max64(m, p.clock+1)
	if lo := p.clock + 1; lo <= t-1 {
		p.addOwnDetached(lo, t-1)
	}
	ci.attachedMine = t
	p.attached.push(AttachedWire{ID: id, TS: t})
	p.clock = t
	return t
}

// gossipAttached returns a copy of the oldest live attached promises, at
// most limit, for one MPromises. The dead entries it scans past are
// dropped from the queue for good, so a broadcast costs O(limit) plus
// O(1) per promise folded since the last one — no sweep of the whole set.
func (p *Process) gossipAttached(limit int) []AttachedWire {
	q := p.attached.live()
	if len(q) == 0 {
		return nil
	}
	out := make([]AttachedWire, 0, min(len(q), limit))
	scanned := 0
	for ; scanned < len(q) && len(out) < limit; scanned++ {
		aw := q[scanned]
		if ci := p.cmds[aw.ID]; ci != nil && ci.attachedMine == aw.TS {
			out = append(out, aw)
		}
	}
	// Keep the live entries of the scanned prefix, in order, at its end.
	dead := scanned - len(out)
	copy(q[dead:scanned], out)
	p.attached.drop(dead)
	if len(out) == 0 {
		return nil
	}
	return out
}

// bump implements lines 40-43: advances the clock to t, generating
// detached promises for the skipped range (including t itself).
func (p *Process) bump(t uint64) {
	if t <= p.clock {
		return
	}
	p.addOwnDetached(p.clock+1, t)
	p.clock = t
}

func (p *Process) addOwnDetached(lo, hi uint64) {
	p.detached.AddRange(lo, hi)
	p.tracker.AddDetached(p.rank, lo, hi)
}

// onMProposeAck gathers proposals at the coordinator (line 17).
func (p *Process) onMProposeAck(from ids.ProcessID, m *MProposeAck) []proto.Action {
	ci, ok := p.cmds[m.ID]
	if !ok || ci.phase != PhasePropose || ci.quorums == nil {
		return nil
	}
	fq := ci.quorums[p.shard]
	if len(fq) == 0 || fq[0] != p.id {
		return nil // not the coordinator at this shard
	}
	rank := p.rankOfProc(from)
	if rank == 0 {
		return nil
	}
	if ci.proposals == nil {
		ci.proposals = make([]uint64, p.r)
	}
	// Record the ack (at most one per process) and piggybacked detached
	// promises.
	if ci.proposals[rank-1] != 0 {
		return nil
	}
	ci.proposals[rank-1] = m.TS
	ci.nProposals++
	if m.DetachedLo != 0 {
		p.tracker.AddDetached(rank, m.DetachedLo, m.DetachedHi)
		if ci.ackDetached == nil {
			ci.ackDetached = make([][2]uint64, p.r)
		}
		ci.ackDetached[rank-1] = [2]uint64{m.DetachedLo, m.DetachedHi}
	}
	if ci.nProposals < len(fq) {
		return nil
	}
	// All fast-quorum processes answered: decide fast or slow path
	// (lines 19-21).
	var t uint64
	for _, ts := range ci.proposals {
		t = max64(t, ts)
	}
	count := 0
	for _, ts := range ci.proposals {
		if ts != 0 && ts == t {
			count++
		}
	}
	if count >= p.f {
		p.statFast++
		return p.sendCommit(m.ID, ci, t)
	}
	// Slow path: Flexible Paxos phase 2 at the initial ballot (our rank).
	p.statSlow++
	ci.slowPath = true
	ci.coordBallot = ids.InitialBallot(p.rank)
	return []proto.Action{proto.Send(&MConsensus{ID: m.ID, TS: t, Ballot: ci.coordBallot}, p.shardProcs...)}
}

// sendCommit broadcasts MCommit for this shard to every process that
// replicates a shard accessed by the command (line 20/33).
func (p *Process) sendCommit(id ids.Dot, ci *cmdInfo, t uint64) []proto.Action {
	mc := &MCommit{ID: id, Shard: p.shard, TS: t}
	if !p.cfg.DisablePiggyback {
		// proposals is rank-indexed, so iterating it yields the attached
		// promises already sorted by rank.
		for i, ts := range ci.proposals {
			if ts == 0 {
				continue
			}
			rt := RankTS{Rank: ids.Rank(i + 1), TS: ts}
			if ci.ackDetached != nil {
				rt.DetLo, rt.DetHi = ci.ackDetached[i][0], ci.ackDetached[i][1]
			}
			mc.Attached = append(mc.Attached, rt)
		}
	}
	to := p.cmdProcesses(ci)
	return []proto.Action{proto.Send(mc, to...)}
}

// cmdProcesses returns I_c for a command with known payload.
func (p *Process) cmdProcesses(ci *cmdInfo) []ids.ProcessID {
	var out []ids.ProcessID
	for _, s := range ci.shards {
		out = append(out, p.topo.ShardProcesses(s)...)
	}
	return out
}

// onMBump bumps the clock on behalf of a sibling shard's proposal
// (Algorithm 3, line 69).
func (p *Process) onMBump(m *MBump) []proto.Action {
	ci, ok := p.cmds[m.ID]
	if !ok || ci.phase != PhasePropose {
		// The paper's precondition is id ∈ propose; note our own shard's
		// proposal handler runs before MBump arrives from siblings.
		return nil
	}
	p.bump(m.TS)
	return nil
}

// onMCommit records a shard's committed timestamp (Algorithm 3, line 56).
func (p *Process) onMCommit(m *MCommit) []proto.Action {
	ci := p.info(m.ID)
	if ci.phase == PhaseCommit || ci.phase == PhaseExecute {
		return nil
	}
	ci.setCommit(m.Shard, m.TS)
	// Attached promises of our shard's fast quorum, piggybacked for
	// faster stability (§3.2). Buffered by the tracker until the command
	// is fully committed here.
	if m.Shard == p.shard {
		for _, a := range m.Attached {
			p.tracker.AddAttached(promise.Attached{Owner: a.Rank, ID: m.ID, TS: a.TS})
			if a.DetLo != 0 {
				p.tracker.AddDetached(a.Rank, a.DetLo, a.DetHi)
			}
		}
	}
	p.maybeFinishCommit(m.ID, ci)
	return nil
}

// maybeFinishCommit moves the command to the commit phase once the
// payload is known and every accessed shard has committed.
func (p *Process) maybeFinishCommit(id ids.Dot, ci *cmdInfo) {
	if ci.cmd == nil || ci.phase == PhaseCommit || ci.phase == PhaseExecute {
		return
	}
	if !ci.committedAllShards() {
		return
	}
	var t uint64
	for _, ts := range ci.commitVals {
		t = max64(t, ts)
	}
	ci.finalTS = t
	ci.phase = PhaseCommit
	delete(p.uncommittedSeen, id)
	delete(p.lastCommitReq, id)
	// Generating detached promises up to the committed timestamp helps
	// liveness of the execution mechanism (line 25/59).
	p.bump(t)
	p.tracker.Committed(id)
	if ci.attachedMine != 0 {
		p.tracker.AddAttached(promise.Attached{Owner: p.rank, ID: id, TS: ci.attachedMine})
	}
	p.committed.push(tsDot{ts: t, id: id})
}

// onMConsensus is Flexible Paxos phase 2 at an acceptor (line 26/30).
func (p *Process) onMConsensus(from ids.ProcessID, m *MConsensus) []proto.Action {
	ci := p.info(m.ID)
	if ci.bal > m.Ballot {
		// Appendix B: NACK stale ballots so the recovering leader can
		// catch up.
		return []proto.Action{proto.Send(&MRecNAck{ID: m.ID, Ballot: ci.bal}, from)}
	}
	ci.ts = m.TS
	ci.bal = m.Ballot
	ci.abal = m.Ballot
	p.bump(m.TS)
	return []proto.Action{proto.Send(&MConsensusAck{ID: m.ID, Ballot: m.Ballot}, from)}
}

// onMConsensusAck gathers f+1 accepts and commits (line 31).
func (p *Process) onMConsensusAck(from ids.ProcessID, m *MConsensusAck) []proto.Action {
	ci, ok := p.cmds[m.ID]
	if !ok || ci.coordBallot != m.Ballot || ci.bal != m.Ballot {
		return nil
	}
	rank := p.rankOfProc(from)
	if rank == 0 {
		return nil
	}
	if ci.consensusFrom == nil {
		ci.consensusFrom = make([]bool, p.r)
	}
	if !ci.consensusFrom[rank-1] {
		ci.consensusFrom[rank-1] = true
		ci.nConsensusAck++
	}
	if ci.nConsensusAck != p.f+1 {
		return nil
	}
	ci.coordBallot = 0 // done coordinating
	if ci.cmd == nil {
		// We cannot know I_c without the payload; recovery coordinators
		// always have it (recover requires id ∈ pending).
		return nil
	}
	return p.sendCommit(m.ID, ci, ci.ts)
}

// Tick implements proto.Replica: periodic promise broadcast, payload
// resend and recovery (Algorithm 6).
func (p *Process) Tick(now time.Duration) []proto.Action {
	if p.crashed {
		return nil
	}
	p.now = now
	p.noteHeard()
	var acts []proto.Action
	if now-p.lastPromises >= p.cfg.PromiseInterval {
		p.lastPromises = now
		acts = append(acts, p.broadcastPromises()...)
	}
	if p.cfg.RecoveryTimeout > 0 {
		if now-p.lastResend >= p.cfg.ResendInterval {
			p.lastResend = now
			acts = append(acts, p.periodicRecovery()...)
		}
		if p.leader == p.rank && now-p.lastSilentScan >= p.suspectAfter && p.anySuspected() {
			p.lastSilentScan = now
			acts = append(acts, p.recoverSilent()...)
		}
	}
	return p.route(append(acts, p.advanceExecution()...))
}

// broadcastPromises sends MPromises to the other shard replicas (line 90).
func (p *Process) broadcastPromises() []proto.Action {
	if len(p.shardOthers) == 0 {
		return nil
	}
	m := &MPromises{
		Rank:     p.rank,
		Detached: p.detached.Encode(),
		WM:       p.executedWM,
	}
	// The copy gossipAttached makes is required: the message is encoded
	// asynchronously by the peer writers while the queue keeps mutating.
	//
	// The cap bounds the gossip size under overload: advertise the lowest
	// timestamps first — they are what holds this rank's contiguous
	// frontier back at the peers — and the rest once those are collected.
	// Without it, a backlog inflates every MPromises and starves the CPU.
	const maxAttachedGossip = 256
	m.Attached = p.gossipAttached(maxAttachedGossip)
	return []proto.Action{proto.Send(m, p.shardOthers...)}
}

// onMPromises incorporates a peer's promises (line 92) and collects the
// commands its executed watermark releases.
func (p *Process) onMPromises(m *MPromises) []proto.Action {
	if m.Rank == 0 || int(m.Rank) > p.r {
		return nil
	}
	p.tracker.AddDetachedPairs(m.Rank, m.Detached)
	var acts []proto.Action
	for _, a := range m.Attached {
		p.noteDot(a.ID)
		// A peer advertises a promise until it learns the command executed
		// everywhere, so promises for commands committed — even collected
		// — here are the common case; the tracker incorporates them.
		if p.tracker.AddAttached(promise.Attached{Owner: m.Rank, ID: a.ID, TS: a.TS}) {
			continue
		}
		// Liveness (Appendix B, line 96): somebody proposed a timestamp
		// for a command we have not committed. Per the paper, delay the
		// MCommitRequest: commits normally arrive on their own, and
		// requesting eagerly on every MPromises would flood the shard
		// under load.
		first, seen := p.uncommittedSeen[a.ID]
		if !seen {
			p.uncommittedSeen[a.ID] = p.now
			continue
		}
		if p.now-first < p.cfg.CommitRequestDelay {
			continue
		}
		if last, ok := p.lastCommitReq[a.ID]; ok && p.now-last < p.cfg.CommitRequestDelay {
			continue
		}
		p.lastCommitReq[a.ID] = p.now
		// Ask the whole shard: any process that committed the command
		// can answer (the advertiser alone may only have it pending, or
		// may have crashed). The per-command rate limit above keeps this
		// bounded under load.
		acts = append(acts, proto.Send(&MCommitRequest{ID: a.ID}, p.shardProcs...))
	}
	if p.peerWM[m.Rank-1].less(m.WM) {
		p.peerWM[m.Rank-1] = m.WM
		p.collectExecuted()
	}
	return acts
}

// collectExecuted ends the life of every command that all r replicas of
// the shard have executed: it pops the prefix of the execution log that
// lies at or below the lowest executed watermark. The log is in (ts, id)
// order, so the work is O(r) per call plus O(1) per command collected.
// A rank that has not gossiped its watermark yet (or is down) holds the
// minimum, and with it every command it may still ask about through
// MCommitRequest or MRec.
func (p *Process) collectExecuted() {
	limit, _ := p.collectLimit()
	q := p.executed.live()
	n := 0
	for ; n < len(q); n++ {
		if limit.less(TSWatermark{TS: q[n].ts, ID: q[n].id}) {
			break
		}
		p.collect(q[n].id)
	}
	p.executed.drop(n)
}

// collectLimit returns the lowest executed watermark over the shard's r
// ranks and a rank that holds it.
func (p *Process) collectLimit() (TSWatermark, ids.Rank) {
	limit, holder := p.executedWM, p.rank
	for i, wm := range p.peerWM {
		if r := ids.Rank(i + 1); r != p.rank && wm.less(limit) {
			limit, holder = wm, r
		}
	}
	return limit, holder
}

// GCStats implements proto.GCReporter: the commands this replica holds
// state for, how far (in timestamps) its executed watermark is ahead of
// the lowest one in the shard, and the rank holding that lowest
// watermark — the replica that pins everybody's memory when the lag
// grows. A rank that never reported counts as watermark zero.
func (p *Process) GCStats() (liveCmds int, lagTS uint64, holder ids.Rank) {
	limit, holder := p.collectLimit()
	return len(p.cmds), p.executedWM.TS - limit.TS, holder
}

// collect releases everything keyed by an executed command's id. Every
// replica has committed (indeed executed) the command, so re-advertising
// the own attached promise as detached can no longer create a premature
// stability decision, and nobody can ask for the payload again. The
// tracker keeps the id in its forgotten set, which is what turns late
// messages and late attached promises for it into no-ops.
func (p *Process) collect(id ids.Dot) {
	ci := p.cmds[id]
	if ts := ci.attachedMine; ts != 0 {
		p.addOwnDetached(ts, ts)
		ci.attachedMine = 0
	}
	p.tracker.Forget(id)
	if p.cfg.RetainLog {
		return
	}
	delete(p.cmds, id)
	ci.reset()
	p.ciPool.Put(ci)
}

// onMCommitRequest replays payload and commit info for a committed
// command (Appendix B, line 86).
func (p *Process) onMCommitRequest(from ids.ProcessID, m *MCommitRequest) []proto.Action {
	ci, ok := p.cmds[m.ID]
	if !ok || (ci.phase != PhaseCommit && ci.phase != PhaseExecute) {
		return nil
	}
	acts := []proto.Action{
		proto.Send(&MPayload{ID: m.ID, Cmd: ci.cmd, Quorums: ci.quorums}, from),
	}
	for i, s := range ci.commitShards {
		acts = append(acts, proto.Send(&MCommit{ID: m.ID, Shard: s, TS: ci.commitVals[i]}, from))
	}
	return acts
}

// Drain implements proto.Replica.
func (p *Process) Drain() []proto.Executed {
	out := p.executedOut
	p.executedOut = nil
	return out
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
