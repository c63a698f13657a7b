// Package sim is a deterministic discrete-event simulator for geo-
// replicated deployments: replicas exchange messages over links whose
// latency comes from the topology's RTT matrix (one-way = RTT/2), closed-
// loop clients submit commands at their local site, and per-process CPU
// and NIC queueing models reproduce the saturation behaviour the paper
// measures on a physical cluster.
//
// With the cost model disabled the simulator matches the paper's own
// simulator mode ("the observed client latency ... when CPU and network
// bottlenecks are disregarded"); with it enabled, leader NIC saturation
// (FPaxos, Figure 7/8) and single-threaded dependency-graph execution
// bottlenecks (Atlas/EPaxos/Janus*, Figures 7/9) emerge from the queues.
package sim

import (
	"container/heap"
	"math/rand"
	"time"

	"tempo/internal/depgraph"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/topology"
)

// CostModel is the per-process CPU and NIC model. Zero values mean
// "free"/"infinite".
type CostModel struct {
	// PerMsg is the CPU service time charged per handled message.
	PerMsg time.Duration
	// PerByte is the CPU time charged per message byte (marshaling).
	PerByte time.Duration
	// PerSend is the CPU time charged to the sender per destination copy
	// (serialization and syscall work); it is what makes broadcast-heavy
	// leaders a bottleneck.
	PerSend time.Duration
	// PerExec is the CPU time charged per executed command.
	PerExec time.Duration
	// PerGraphNode is the execution-thread time charged, per executed
	// batch, for each command pending in the replica's dependency graph —
	// it models the single-threaded SCC re-traversal of EPaxos-style
	// executors (the paper's Atlas/Janus execution bottleneck).
	PerGraphNode time.Duration
	// NICBytesPerSec is the outgoing bandwidth per process; each
	// destination copy of a broadcast is serialized separately.
	NICBytesPerSec float64
}

func (c *CostModel) msgCost(size int) time.Duration {
	if c == nil {
		return 0
	}
	return c.PerMsg + time.Duration(size)*c.PerByte
}

// execCost is the execution-thread service time for a batch of n
// executed commands with graphPending commands still blocked in the
// dependency graph (0 for protocols without one).
func (c *CostModel) execCost(n, graphPending int) time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(n)*c.PerExec + time.Duration(graphPending)*c.PerGraphNode
}

func (c *CostModel) sendCost(size int) time.Duration {
	if c == nil {
		return 0
	}
	return c.PerSend + time.Duration(size)*c.PerByte/2
}

func (c *CostModel) txTime(size int) time.Duration {
	if c == nil || c.NICBytesPerSec == 0 {
		return 0
	}
	return time.Duration(float64(size) / c.NICBytesPerSec * float64(time.Second))
}

// graphHolder lets the cost model observe dependency-graph backlog.
type graphHolder interface{ Graph() *depgraph.Graph }

// event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

// Len implements heap.Interface.
func (h eventHeap) Len() int { return len(h) }

// Less implements heap.Interface: events fire in (time, insertion) order.
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// Swap implements heap.Interface.
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }

// Pop implements heap.Interface.
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// node wraps one replica with its queueing state.
type node struct {
	rep proto.Replica

	cpuBusyUntil  time.Duration
	cpuBusy       time.Duration
	execBusyUntil time.Duration
	execBusy      time.Duration
	nicBusyUntil  time.Duration
	nicBusy       time.Duration
	bytesOut      uint64
	bytesIn       uint64
}

// Sim is a single simulation run.
type Sim struct {
	topo  *topology.Topology
	cost  *CostModel
	rng   *rand.Rand
	nodes map[ids.ProcessID]*node

	heap   eventHeap
	seq    uint64
	now    time.Duration
	endAt  time.Duration
	jitter float64
	// lastArrive is the latest arrival scheduled on each directed link:
	// jitter may delay a message, never reorder it past a later one, as
	// the runtime's TCP links guarantee.
	lastArrive map[[2]ids.ProcessID]time.Duration

	onExecuted func(at time.Duration, p ids.ProcessID, ex []proto.Executed)
}

// New creates a simulation over the topology with one replica per
// process (built by newReplica).
func New(topo *topology.Topology, newReplica func(ids.ProcessID) proto.Replica, cost *CostModel, seed int64) *Sim {
	s := &Sim{
		topo:       topo,
		cost:       cost,
		rng:        rand.New(rand.NewSource(seed)),
		nodes:      make(map[ids.ProcessID]*node),
		jitter:     0.01,
		lastArrive: make(map[[2]ids.ProcessID]time.Duration),
	}
	for _, pi := range topo.Processes() {
		s.nodes[pi.ID] = &node{rep: newReplica(pi.ID)}
	}
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// Replica returns the replica for a process.
func (s *Sim) Replica(id ids.ProcessID) proto.Replica { return s.nodes[id].rep }

// SetExecutedHook registers the callback invoked whenever a replica
// executes commands (the runner uses it for client completion).
func (s *Sim) SetExecutedHook(fn func(at time.Duration, p ids.ProcessID, ex []proto.Executed)) {
	s.onExecuted = fn
}

// schedule enqueues fn at time at.
func (s *Sim) schedule(at time.Duration, fn func()) {
	s.seq++
	heap.Push(&s.heap, &event{at: at, seq: s.seq, fn: fn})
}

// Submit injects a client command at process p at the current time,
// charging the replica's CPU like a message arrival.
func (s *Sim) Submit(p ids.ProcessID, submit func(proto.Replica) []proto.Action) {
	n := s.nodes[p]
	start := s.now
	if n.cpuBusyUntil > start {
		start = n.cpuBusyUntil
	}
	svc := s.cost.msgCost(64)
	n.cpuBusyUntil = start + svc
	n.cpuBusy += svc
	s.schedule(start+svc, func() {
		acts := submit(n.rep)
		s.dispatch(p, acts)
		s.drainExecuted(p, n)
	})
}

func (s *Sim) graphPending(n *node) int {
	if s.cost == nil || s.cost.PerGraphNode == 0 {
		return 0
	}
	if gh, ok := n.rep.(graphHolder); ok {
		return gh.Graph().Pending()
	}
	return 0
}

// dispatch sends actions from process p at the current event time,
// applying the NIC model.
func (s *Sim) dispatch(p ids.ProcessID, acts []proto.Action) {
	n := s.nodes[p]
	for _, a := range acts {
		size := a.Msg.Size()
		for _, to := range a.To {
			if to == p {
				continue // protocols deliver self-messages internally
			}
			if sc := s.cost.sendCost(size); sc > 0 {
				n.cpuBusyUntil += sc
				n.cpuBusy += sc
			}
			tx := s.cost.txTime(size)
			depart := s.now
			if n.nicBusyUntil > depart {
				depart = n.nicBusyUntil
			}
			depart += tx
			n.nicBusyUntil = depart
			n.nicBusy += tx
			n.bytesOut += uint64(size)

			oneway := s.topo.RTT(p, to) / 2
			if s.jitter > 0 && oneway > 0 {
				oneway += time.Duration(s.rng.Float64() * s.jitter * float64(oneway))
			}
			// Equal arrival times fire in scheduling order, so the floor
			// keeps the link FIFO.
			link := [2]ids.ProcessID{p, to}
			arrive := max(depart+oneway, s.lastArrive[link])
			s.lastArrive[link] = arrive
			s.deliver(p, to, a.Msg, arrive)
		}
	}
}

// deliver schedules the CPU-queued handling of msg at dst.
func (s *Sim) deliver(from, to ids.ProcessID, msg proto.Message, arrive time.Duration) {
	s.schedule(arrive, func() {
		dst := s.nodes[to]
		dst.bytesIn += uint64(msg.Size())
		start := s.now
		if dst.cpuBusyUntil > start {
			start = dst.cpuBusyUntil
		}
		svc := s.cost.msgCost(msg.Size())
		dst.cpuBusyUntil = start + svc
		dst.cpuBusy += svc
		s.schedule(start+svc, func() {
			acts := dst.rep.Handle(from, msg)
			s.dispatch(to, acts)
			s.drainExecuted(to, dst)
		})
	})
}

// drainExecuted routes executed commands through the process's execution
// server — a second, independent queueing station modelling the
// single-threaded executor of the real systems — and reports completions
// when it finishes.
func (s *Sim) drainExecuted(p ids.ProcessID, n *node) {
	ex := n.rep.Drain()
	if len(ex) == 0 {
		return
	}
	svc := s.cost.execCost(len(ex), s.graphPending(n))
	if svc == 0 {
		if s.onExecuted != nil {
			s.onExecuted(s.now, p, ex)
		}
		return
	}
	start := s.now
	if n.execBusyUntil > start {
		start = n.execBusyUntil
	}
	n.execBusyUntil = start + svc
	n.execBusy += svc
	batch := ex
	s.schedule(start+svc, func() {
		if s.onExecuted != nil {
			s.onExecuted(s.now, p, batch)
		}
	})
}

// StartTicks schedules periodic Tick calls for every replica, in
// deterministic process order.
func (s *Sim) StartTicks(interval time.Duration) {
	for _, pi := range s.topo.Processes() {
		pid := pi.ID
		var tick func()
		tick = func() {
			n := s.nodes[pid]
			acts := n.rep.Tick(s.now)
			s.dispatch(pid, acts)
			s.drainExecuted(pid, n)
			if s.now < s.endAt {
				s.schedule(s.now+interval, tick)
			}
		}
		s.schedule(s.now+interval, tick)
	}
}

// Run processes events until the given end time (or until the event
// queue empties).
func (s *Sim) Run(until time.Duration) {
	s.endAt = until
	for len(s.heap) > 0 {
		ev := heap.Pop(&s.heap).(*event)
		if ev.at > until {
			return
		}
		if ev.at > s.now {
			s.now = ev.at
		}
		ev.fn()
	}
}

// Utilization returns the peak CPU (protocol-handler thread), executor
// thread, and NIC utilization across processes, as fractions of capacity.
func (s *Sim) Utilization() (cpu, exec, nic float64) {
	if s.now == 0 {
		return 0, 0, 0
	}
	for _, n := range s.nodes {
		if c := float64(n.cpuBusy) / float64(s.now); c > cpu {
			cpu = c
		}
		if e := float64(n.execBusy) / float64(s.now); e > exec {
			exec = e
		}
		if u := float64(n.nicBusy) / float64(s.now); u > nic {
			nic = u
		}
	}
	return clamp1(cpu), clamp1(exec), clamp1(nic)
}

func clamp1(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}

// BytesOut returns the total bytes sent by a process.
func (s *Sim) BytesOut(p ids.ProcessID) uint64 { return s.nodes[p].bytesOut }
