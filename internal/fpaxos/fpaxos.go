// Package fpaxos implements the Flexible Paxos baseline of the paper
// (Howard et al., OPODIS 2016): leader-based state-machine replication
// where the leader commits a log slot after acknowledgment by a phase-2
// quorum of only f+1 processes (recovery would use quorums of r−f; the
// evaluation runs failure-free, matching the paper's setup).
//
// The leader is the single point of ordering: every command is forwarded
// to it, which is what makes FPaxos unfair to distant clients (Figure 5)
// and leader-bottlenecked at high load (Figure 7). Site-local batching
// (Figure 8) aggregates commands before forwarding/proposing.
//
// Like the epaxos baselines, FPaxos runs on the simulator and on testnet
// only; the cluster runtime runs Tempo alone.
package fpaxos

import (
	"fmt"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/kvstore"
	"tempo/internal/proto"
	"tempo/internal/topology"
)

// FForward carries client commands from a follower site to the leader.
type FForward struct {
	Cmds []*command.Command
}

// FAccept is Paxos phase 2 for one log slot.
type FAccept struct {
	Slot   uint64
	Ballot ids.Ballot
	Cmds   []*command.Command
}

// FAcceptAck acknowledges FAccept.
type FAcceptAck struct {
	Slot   uint64
	Ballot ids.Ballot
}

// FCommit announces a decided slot to every replica.
type FCommit struct {
	Slot uint64
	Cmds []*command.Command
}

const hdr = 16

func cmdsSize(cs []*command.Command) int {
	n := 0
	for _, c := range cs {
		n += c.SizeBytes()
	}
	return n
}

// Size implements proto.Message.
func (m *FForward) Size() int { return hdr + cmdsSize(m.Cmds) }

// Size implements proto.Message.
func (m *FAccept) Size() int { return hdr + 16 + cmdsSize(m.Cmds) }

// Size implements proto.Message.
func (m *FAcceptAck) Size() int { return hdr + 16 }

// Size implements proto.Message.
func (m *FCommit) Size() int { return hdr + 8 + cmdsSize(m.Cmds) }

// Config tunes a replica.
type Config struct {
	// Batching aggregates commands at each site before forwarding or
	// proposing (Figure 8). A batch flushes after BatchWindow or at
	// MaxBatch commands, whichever comes first.
	Batching    bool
	BatchWindow time.Duration
	MaxBatch    int
}

func (c Config) withDefaults() Config {
	if c.BatchWindow == 0 {
		c.BatchWindow = 5 * time.Millisecond
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 105 // the paper's batch cap
	}
	return c
}

type slot struct {
	cmds      []*command.Command
	acks      map[ids.ProcessID]bool
	committed bool
}

// Process is an FPaxos replica. It implements proto.Replica.
type Process struct {
	id    ids.ProcessID
	shard ids.ShardID
	rank  ids.Rank
	r, f  int
	topo  *topology.Topology
	cfg   Config

	leaderRank ids.Rank
	nextSlot   uint64
	nextID     uint64
	log        map[uint64]*slot
	execNext   uint64
	store      *kvstore.Store

	pending   []*command.Command
	lastFlush time.Duration

	executedOut []proto.Executed
	crashed     bool
	proposed    uint64
}

var _ proto.Replica = (*Process)(nil)
var _ proto.LeaderAware = (*Process)(nil)
var _ proto.Crashable = (*Process)(nil)

// New creates an FPaxos replica; the initial leader is rank 1.
func New(id ids.ProcessID, topo *topology.Topology, cfg Config) *Process {
	pi := topo.Process(id)
	if pi.ID != id {
		panic(fmt.Sprintf("fpaxos: unknown process %d", id))
	}
	return &Process{
		id:         id,
		shard:      pi.Shard,
		rank:       pi.Rank,
		r:          topo.R(),
		f:          topo.F(),
		topo:       topo,
		cfg:        cfg.withDefaults(),
		leaderRank: 1,
		log:        make(map[uint64]*slot),
		execNext:   1,
		store:      kvstore.New(),
	}
}

// ID implements proto.Replica.
func (p *Process) ID() ids.ProcessID { return p.id }

// Store returns the replica's key-value store.
func (p *Process) Store() *kvstore.Store { return p.store }

// Proposed returns the number of slots this process proposed as leader.
func (p *Process) Proposed() uint64 { return p.proposed }

// SetLeader implements proto.LeaderAware.
func (p *Process) SetLeader(rank ids.Rank) { p.leaderRank = rank }

// Crash implements proto.Crashable.
func (p *Process) Crash() { p.crashed = true }

// NextID mints a fresh command identifier; the simulator stamps each
// client command with it before submitting.
func (p *Process) NextID() ids.Dot {
	p.nextID++
	return ids.Dot{Source: p.id, Seq: p.nextID}
}

func (p *Process) leaderID() ids.ProcessID {
	for _, q := range p.topo.ShardProcesses(p.shard) {
		if p.topo.Process(q).Rank == p.leaderRank {
			return q
		}
	}
	return 0
}

func (p *Process) isLeader() bool { return p.rank == p.leaderRank }

// Submit implements proto.Replica.
func (p *Process) Submit(cmd *command.Command) []proto.Action {
	if p.crashed {
		return nil
	}
	if p.cfg.Batching {
		p.pending = append(p.pending, cmd)
		if len(p.pending) >= p.cfg.MaxBatch {
			return p.route(p.flush())
		}
		return nil
	}
	return p.route(p.dispatch([]*command.Command{cmd}))
}

// dispatch proposes locally (leader) or forwards a batch to the leader.
func (p *Process) dispatch(cmds []*command.Command) []proto.Action {
	if p.isLeader() {
		return p.propose(cmds)
	}
	return []proto.Action{proto.Send(&FForward{Cmds: cmds}, p.leaderID())}
}

// propose assigns the next slot and runs phase 2 on the f+1 nearest
// acceptors (including self).
func (p *Process) propose(cmds []*command.Command) []proto.Action {
	p.nextSlot++
	p.proposed++
	s := p.nextSlot
	st := &slot{cmds: cmds, acks: map[ids.ProcessID]bool{}}
	p.log[s] = st
	quorum := p.topo.FastQuorum(p.id, p.f+1)
	return []proto.Action{proto.Send(&FAccept{Slot: s, Ballot: ids.Ballot(p.rank), Cmds: cmds}, quorum...)}
}

// flush sends out any batched commands.
func (p *Process) flush() []proto.Action {
	if len(p.pending) == 0 {
		return nil
	}
	cmds := p.pending
	p.pending = nil
	return p.dispatch(cmds)
}

// Handle implements proto.Replica.
func (p *Process) Handle(from ids.ProcessID, msg proto.Message) []proto.Action {
	if p.crashed {
		return nil
	}
	return p.route(p.handle(from, msg))
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
	case *FForward:
		if !p.isLeader() {
			// Stale leader view at the sender: re-forward.
			return []proto.Action{proto.Send(m, p.leaderID())}
		}
		return p.propose(m.Cmds)
	case *FAccept:
		// Failure-free phase 2: accept unconditionally.
		if m.Slot < p.execNext {
			// Already executed here (a duplicate): re-ack only.
			return []proto.Action{proto.Send(&FAcceptAck{Slot: m.Slot, Ballot: m.Ballot}, from)}
		}
		if _, ok := p.log[m.Slot]; !ok {
			p.log[m.Slot] = &slot{cmds: m.Cmds}
		}
		return []proto.Action{proto.Send(&FAcceptAck{Slot: m.Slot, Ballot: m.Ballot}, from)}
	case *FAcceptAck:
		st, ok := p.log[m.Slot]
		if !ok || st.committed || st.acks == nil {
			return nil
		}
		st.acks[from] = true
		if len(st.acks) < p.f+1 {
			return nil
		}
		st.acks = nil
		return []proto.Action{proto.Send(&FCommit{Slot: m.Slot, Cmds: st.cmds}, p.topo.ShardProcesses(p.shard)...)}
	case *FCommit:
		if m.Slot < p.execNext {
			return nil // already executed here (a duplicate)
		}
		st, ok := p.log[m.Slot]
		if !ok {
			st = &slot{cmds: m.Cmds}
			p.log[m.Slot] = st
		}
		st.committed = true
		p.executeReady()
		return nil
	default:
		panic(fmt.Sprintf("fpaxos: unknown message %T", msg))
	}
}

// executeReady applies committed slots in order.
func (p *Process) executeReady() {
	for {
		st, ok := p.log[p.execNext]
		if !ok || !st.committed {
			return
		}
		for _, c := range st.cmds {
			res := p.store.Apply(c, p.shard, p.topo.ShardOf)
			p.executedOut = append(p.executedOut, proto.Executed{Cmd: c, Shard: p.shard, Result: res})
		}
		delete(p.log, p.execNext)
		p.execNext++
	}
}

// Tick implements proto.Replica: it flushes the batch once the batch
// window has elapsed.
func (p *Process) Tick(now time.Duration) []proto.Action {
	if p.crashed || !p.cfg.Batching || now-p.lastFlush < p.cfg.BatchWindow {
		return nil
	}
	p.lastFlush = now
	return p.route(p.flush())
}

// Drain implements proto.Replica.
func (p *Process) Drain() []proto.Executed {
	out := p.executedOut
	p.executedOut = nil
	return out
}
