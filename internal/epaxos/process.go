package epaxos

import (
	"fmt"
	"sort"
	"time"

	"tempo/internal/command"
	"tempo/internal/depgraph"
	"tempo/internal/ids"
	"tempo/internal/kvstore"
	"tempo/internal/proto"
	"tempo/internal/topology"
)

// Variant selects the protocol flavour.
type Variant uint8

const (
	// VariantEPaxos: fast quorum ⌊3r/4⌋, fast path only when all
	// reports match; slow quorum is a majority.
	VariantEPaxos Variant = iota
	// VariantAtlas: fast quorum ⌊r/2⌋+f, fast path when every reported
	// dependency is recoverable (reported by >= f processes or by the
	// coordinator); slow quorum f+1.
	VariantAtlas
)

// String names the protocol variant ("epaxos" or "atlas").
func (v Variant) String() string {
	if v == VariantEPaxos {
		return "epaxos"
	}
	return "atlas"
}

// Config tunes a replica.
type Config struct {
	Variant Variant
	// NonGenuineCommit broadcasts commits to every process in the system
	// rather than just the command's shards. Janus* requires it: its
	// dependency graphs reference commands of other shards (§6, "Janus*
	// is non-genuine").
	NonGenuineCommit bool
	// ExecuteOnCommit skips dependency-graph execution and executes
	// commands as soon as committed. Used to measure the commit
	// protocol in isolation (the paper's "Caesar*"-style idealization is
	// analogous); it breaks cross-replica ordering and must only be used
	// for throughput measurements.
	ExecuteOnCommit bool
}

// FastQuorumSize returns the variant's fast-quorum size.
func (c Config) FastQuorumSize(r, f int) int {
	if c.Variant == VariantEPaxos {
		return 3 * r / 4
	}
	return topology.TempoFastQuorumSize(r, f) // ⌊r/2⌋+f, same as Tempo
}

// keyInfo tracks, per key of the local shard, the last writer and the
// reads since it — the conflict index used to compute dependencies.
type keyInfo struct {
	lastWrite    ids.Dot
	lastWriteSeq uint64
	reads        map[ids.Dot]uint64
}

type cmdState struct {
	cmd     *command.Command
	shards  []ids.ShardID
	quorums Quorums
	// Coordinator state.
	acks     map[ids.ProcessID]*EPreAcceptAck
	accepted map[ids.ProcessID]bool
	seq      uint64
	deps     []ids.Dot
	slowPath bool
	// Commit state: per-shard reports.
	shardSeq  map[ids.ShardID]uint64
	shardDeps map[ids.ShardID][]ids.Dot
	committed bool
	seen      bool // registered in the conflict index
}

// Process is an EPaxos/Atlas replica. It implements proto.Replica.
type Process struct {
	id    ids.ProcessID
	shard ids.ShardID
	rank  ids.Rank
	r, f  int
	topo  *topology.Topology
	cfg   Config

	shardProcs []ids.ProcessID
	keys       map[command.Key]*keyInfo
	cmds       map[ids.Dot]*cmdState
	graph      *depgraph.Graph
	store      *kvstore.Store

	nextSeq     uint64
	crashed     bool
	executedOut []proto.Executed

	statFast, statSlow uint64
}

var _ proto.Replica = (*Process)(nil)
var _ proto.Crashable = (*Process)(nil)

// New creates a replica for process id.
func New(id ids.ProcessID, topo *topology.Topology, cfg Config) *Process {
	pi := topo.Process(id)
	if pi.ID != id {
		panic(fmt.Sprintf("epaxos: unknown process %d", id))
	}
	return &Process{
		id:         id,
		shard:      pi.Shard,
		rank:       pi.Rank,
		r:          topo.R(),
		f:          topo.F(),
		topo:       topo,
		cfg:        cfg,
		shardProcs: topo.ShardProcesses(pi.Shard),
		keys:       make(map[command.Key]*keyInfo),
		cmds:       make(map[ids.Dot]*cmdState),
		graph:      depgraph.New(),
		store:      kvstore.New(),
	}
}

// ID implements proto.Replica.
func (p *Process) ID() ids.ProcessID { return p.id }

// Store returns the local key-value store.
func (p *Process) Store() *kvstore.Store { return p.store }

// Graph exposes the dependency graph (metrics: SCC sizes, blocked peak).
func (p *Process) Graph() *depgraph.Graph { return p.graph }

// Stats returns (fast, slow) path commit counts at this coordinator.
func (p *Process) Stats() (fast, slow uint64) { return p.statFast, p.statSlow }

// Crash implements proto.Crashable.
func (p *Process) Crash() { p.crashed = true }

// NextID mints a fresh command identifier; the simulator stamps each
// client command with it before submitting.
func (p *Process) NextID() ids.Dot {
	p.nextSeq++
	return ids.Dot{Source: p.id, Seq: p.nextSeq}
}

// Submit implements proto.Replica.
func (p *Process) Submit(cmd *command.Command) []proto.Action {
	if p.crashed {
		return nil
	}
	shards := p.topo.CmdShards(cmd)
	coords := p.topo.ClosestPerShard(p.id, shards)
	quorums := make(Quorums, len(shards))
	size := p.cfg.FastQuorumSize(p.r, p.f)
	for i, s := range shards {
		quorums[s] = p.topo.FastQuorum(coords[i], size)
	}
	return p.route([]proto.Action{proto.Send(&ESubmit{ID: cmd.ID, Cmd: cmd, Quorums: quorums}, coords...)})
}

// Handle implements proto.Replica.
func (p *Process) Handle(from ids.ProcessID, msg proto.Message) []proto.Action {
	if p.crashed {
		return nil
	}
	return p.route(p.handle(from, msg))
}

// Tick implements proto.Replica. EPaxos has no periodic machinery: the
// paper runs the baselines failure-free.
func (p *Process) Tick(time.Duration) []proto.Action { return nil }

// Drain implements proto.Replica.
func (p *Process) Drain() []proto.Executed {
	out := p.executedOut
	p.executedOut = nil
	return out
}

func (p *Process) route(acts []proto.Action) []proto.Action {
	var out []proto.Action
	queue := acts
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		var others []ids.ProcessID
		self := false
		for _, to := range a.To {
			if to == p.id {
				self = true
			} else {
				others = append(others, to)
			}
		}
		if len(others) > 0 {
			out = append(out, proto.Action{To: others, Msg: a.Msg})
		}
		if self {
			queue = append(queue, p.handle(p.id, a.Msg)...)
		}
	}
	return out
}

func (p *Process) handle(from ids.ProcessID, msg proto.Message) []proto.Action {
	switch m := msg.(type) {
	case *ESubmit:
		return p.onSubmit(m)
	case *EPreAccept:
		return p.onPreAccept(from, m)
	case *EPreAcceptAck:
		return p.onPreAcceptAck(from, m)
	case *EAccept:
		return p.onAccept(from, m)
	case *EAcceptAck:
		return p.onAcceptAck(from, m)
	case *ECommit:
		return p.onCommit(m)
	default:
		panic(fmt.Sprintf("epaxos: unknown message %T", msg))
	}
}

func (p *Process) state(id ids.Dot) *cmdState {
	st, ok := p.cmds[id]
	if !ok {
		st = &cmdState{
			shardSeq:  make(map[ids.ShardID]uint64),
			shardDeps: make(map[ids.ShardID][]ids.Dot),
		}
		p.cmds[id] = st
	}
	return st
}

// localDeps computes (deps, seq) for cmd against the local conflict index
// and registers the command in it.
func (p *Process) localDeps(cmd *command.Command) ([]ids.Dot, uint64) {
	depSet := make(map[ids.Dot]uint64)
	for _, op := range cmd.Ops {
		if p.topo.ShardOf(op.Key) != p.shard {
			continue
		}
		ki := p.keys[op.Key]
		if ki == nil {
			continue
		}
		if !ki.lastWrite.IsZero() && ki.lastWrite != cmd.ID {
			depSet[ki.lastWrite] = ki.lastWriteSeq
		}
		if op.Kind == command.Put {
			for d, s := range ki.reads {
				if d != cmd.ID {
					depSet[d] = s
				}
			}
		}
	}
	var maxSeq uint64
	deps := make([]ids.Dot, 0, len(depSet))
	for d, s := range depSet {
		deps = append(deps, d)
		if s > maxSeq {
			maxSeq = s
		}
	}
	sortDots(deps)
	return deps, maxSeq + 1
}

// register records cmd in the conflict index with its sequence number.
func (p *Process) register(cmd *command.Command, seq uint64) {
	st := p.state(cmd.ID)
	if st.seen {
		return
	}
	st.seen = true
	for _, op := range cmd.Ops {
		if p.topo.ShardOf(op.Key) != p.shard {
			continue
		}
		ki := p.keys[op.Key]
		if ki == nil {
			ki = &keyInfo{reads: make(map[ids.Dot]uint64)}
			p.keys[op.Key] = ki
		}
		if op.Kind == command.Put {
			ki.lastWrite = cmd.ID
			ki.lastWriteSeq = seq
			ki.reads = make(map[ids.Dot]uint64)
		} else {
			ki.reads[cmd.ID] = seq
		}
	}
}

// onSubmit makes this process the coordinator at its shard.
func (p *Process) onSubmit(m *ESubmit) []proto.Action {
	deps, seq := p.localDeps(m.Cmd)
	p.register(m.Cmd, seq)
	st := p.state(m.ID)
	st.cmd = m.Cmd
	st.shards = p.topo.CmdShards(m.Cmd)
	st.quorums = m.Quorums
	st.seq, st.deps = seq, deps
	st.acks = map[ids.ProcessID]*EPreAcceptAck{
		p.id: {ID: m.ID, Seq: seq, Deps: deps},
	}
	fq := m.Quorums[p.shard]
	var others []ids.ProcessID
	for _, q := range fq {
		if q != p.id {
			others = append(others, q)
		}
	}
	pa := &EPreAccept{ID: m.ID, Cmd: m.Cmd, Quorums: m.Quorums, Seq: seq, Deps: deps}
	return []proto.Action{proto.Send(pa, others...)}
}

// onPreAccept merges the coordinator's report with local conflicts.
func (p *Process) onPreAccept(from ids.ProcessID, m *EPreAccept) []proto.Action {
	st := p.state(m.ID)
	if st.committed {
		return nil
	}
	st.cmd = m.Cmd
	st.shards = p.topo.CmdShards(m.Cmd)
	st.quorums = m.Quorums
	localDeps, localSeq := p.localDeps(m.Cmd)
	seq := m.Seq
	if localSeq > seq {
		seq = localSeq
	}
	deps := unionDots(m.Deps, localDeps)
	p.register(m.Cmd, seq)
	return []proto.Action{proto.Send(&EPreAcceptAck{ID: m.ID, Seq: seq, Deps: deps}, from)}
}

// onPreAcceptAck gathers fast-quorum reports at the coordinator.
func (p *Process) onPreAcceptAck(from ids.ProcessID, m *EPreAcceptAck) []proto.Action {
	st, ok := p.cmds[m.ID]
	if !ok || st.acks == nil || st.committed || st.slowPath {
		return nil
	}
	if _, dup := st.acks[from]; dup {
		return nil
	}
	st.acks[from] = m
	fq := st.quorums[p.shard]
	if len(st.acks) < len(fq) {
		return nil
	}
	// All reports in: merge.
	union := st.deps
	maxSeq := st.seq
	for _, a := range st.acks {
		union = unionDots(union, a.Deps)
		if a.Seq > maxSeq {
			maxSeq = a.Seq
		}
	}
	if p.fastPathOK(st, union) {
		p.statFast++
		return p.sendCommit(m.ID, st, maxSeq, union)
	}
	// Slow path: Paxos-Accept on (seq, deps).
	p.statSlow++
	st.slowPath = true
	st.seq, st.deps = maxSeq, union
	st.accepted = map[ids.ProcessID]bool{p.id: true}
	acc := &EAccept{ID: m.ID, Ballot: ids.InitialBallot(p.rank), Seq: maxSeq, Deps: union}
	var others []ids.ProcessID
	for _, q := range p.shardProcs {
		if q != p.id {
			others = append(others, q)
		}
	}
	return []proto.Action{proto.Send(acc, others...)}
}

// fastPathOK implements the variant's fast-path condition.
func (p *Process) fastPathOK(st *cmdState, union []ids.Dot) bool {
	switch p.cfg.Variant {
	case VariantEPaxos:
		// Classic EPaxos: every non-coordinator report must equal the
		// coordinator's initial (seq, deps).
		for from, a := range st.acks {
			if from == p.id {
				continue
			}
			if a.Seq != st.seq || !equalDots(a.Deps, st.deps) {
				return false
			}
		}
		return true
	default: // VariantAtlas
		// Atlas: fast path iff every dependency in the union was
		// reported by at least f fast-quorum processes or is part of the
		// coordinator's report (then it survives f failures).
		if p.f == 1 {
			return true
		}
		coordDeps := dotSet(st.deps)
		for _, d := range union {
			if coordDeps[d] {
				continue
			}
			count := 0
			for _, a := range st.acks {
				if containsDot(a.Deps, d) {
					count++
				}
			}
			if count < p.f {
				return false
			}
		}
		return true
	}
}

func (p *Process) slowQuorum() int {
	if p.cfg.Variant == VariantEPaxos {
		return p.r/2 + 1
	}
	return p.f + 1
}

// onAccept is the acceptor side of the slow path.
func (p *Process) onAccept(from ids.ProcessID, m *EAccept) []proto.Action {
	st := p.state(m.ID)
	if st.committed {
		return nil
	}
	st.seq, st.deps = m.Seq, m.Deps
	return []proto.Action{proto.Send(&EAcceptAck{ID: m.ID, Ballot: m.Ballot}, from)}
}

// onAcceptAck finishes the slow path.
func (p *Process) onAcceptAck(from ids.ProcessID, m *EAcceptAck) []proto.Action {
	st, ok := p.cmds[m.ID]
	if !ok || st.accepted == nil || st.committed {
		return nil
	}
	st.accepted[from] = true
	if len(st.accepted) != p.slowQuorum() {
		return nil
	}
	st.accepted = nil
	return p.sendCommit(m.ID, st, st.seq, st.deps)
}

// sendCommit broadcasts the shard's decision.
func (p *Process) sendCommit(id ids.Dot, st *cmdState, seq uint64, deps []ids.Dot) []proto.Action {
	mc := &ECommit{ID: id, Shard: p.shard, Cmd: st.cmd, Seq: seq, Deps: deps}
	var to []ids.ProcessID
	if p.cfg.NonGenuineCommit {
		for _, pi := range p.topo.Processes() {
			to = append(to, pi.ID)
		}
	} else {
		seen := map[ids.ProcessID]bool{}
		for _, s := range st.shards {
			for _, q := range p.topo.ShardProcesses(s) {
				if !seen[q] {
					seen[q] = true
					to = append(to, q)
				}
			}
		}
	}
	return []proto.Action{proto.Send(mc, to...)}
}

// onCommit records a shard decision; once every accessed shard decided,
// the command enters the dependency graph with the union of deps and max
// of seqs.
func (p *Process) onCommit(m *ECommit) []proto.Action {
	st := p.state(m.ID)
	if st.committed {
		return nil
	}
	st.cmd = m.Cmd
	if st.shards == nil {
		st.shards = p.topo.CmdShards(m.Cmd)
	}
	st.shardSeq[m.Shard] = m.Seq
	st.shardDeps[m.Shard] = m.Deps
	for _, s := range st.shards {
		if _, ok := st.shardSeq[s]; !ok {
			return nil
		}
	}
	st.committed = true
	// Register in the conflict index (no-op if already seen at
	// pre-accept), so later commands depend on this one.
	var seq uint64
	var deps []ids.Dot
	for _, s := range st.shards {
		if st.shardSeq[s] > seq {
			seq = st.shardSeq[s]
		}
		deps = unionDots(deps, st.shardDeps[s])
	}
	p.register(m.Cmd, seq)
	if p.cfg.ExecuteOnCommit {
		p.executeNow(st.cmd)
		return nil
	}
	p.graph.Commit(m.ID, seq, deps, st.cmd)
	p.runExecutor()
	return nil
}

func (p *Process) runExecutor() {
	for _, n := range p.graph.Executable() {
		p.executeNow(n.Cmd)
	}
}

func (p *Process) executeNow(cmd *command.Command) {
	shards := p.topo.CmdShards(cmd)
	touchesShard := false
	for _, s := range shards {
		if s == p.shard {
			touchesShard = true
		}
	}
	if !touchesShard {
		// Janus non-genuine: the command is in our graph only for
		// ordering; nothing to apply locally.
		return
	}
	res := p.store.Apply(cmd, p.shard, p.topo.ShardOf)
	p.executedOut = append(p.executedOut, proto.Executed{Cmd: cmd, Shard: p.shard, Result: res})
}

// --- small dot-set helpers ---

func sortDots(d []ids.Dot) {
	sort.Slice(d, func(i, j int) bool { return d[i].Less(d[j]) })
}

func unionDots(a, b []ids.Dot) []ids.Dot {
	if len(b) == 0 {
		return a
	}
	set := make(map[ids.Dot]bool, len(a)+len(b))
	for _, d := range a {
		set[d] = true
	}
	for _, d := range b {
		set[d] = true
	}
	out := make([]ids.Dot, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sortDots(out)
	return out
}

func equalDots(a, b []ids.Dot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsDot(list []ids.Dot, d ids.Dot) bool {
	for _, x := range list {
		if x == d {
			return true
		}
	}
	return false
}

func dotSet(list []ids.Dot) map[ids.Dot]bool {
	m := make(map[ids.Dot]bool, len(list))
	for _, d := range list {
		m[d] = true
	}
	return m
}
