// Package depgraph implements the dependency-graph execution mechanism of
// EPaxos-family protocols (EPaxos, Atlas, Janus): committed commands carry
// explicit dependency sets, execution finds strongly connected components
// (Tarjan) of the committed graph and executes components in reverse
// topological order, commands within a component ordered by (seq, id).
//
// A component may only execute once every command it (transitively)
// depends on is committed — this is the mechanism whose unbounded chains
// cause the high tail latencies the paper measures (§3.3, Appendix D).
package depgraph

import (
	"slices"

	"tempo/internal/command"
	"tempo/internal/ids"
)

// Node is a committed command with its dependencies.
type Node struct {
	ID   ids.Dot
	Seq  uint64
	Deps []ids.Dot
	Cmd  *command.Command

	// Tarjan bookkeeping (reset per run).
	index, lowlink int
	onStack        bool
	visited        bool
	sccIndex       int
}

// Graph accumulates committed commands and yields executable batches.
type Graph struct {
	nodes    map[ids.Dot]*Node
	executed map[ids.Dot]bool

	// Scratch reused across Executable calls (roots, the blocked-SCC
	// bitmap and the Tarjan stack), so steady-state execution does not
	// re-allocate them every drain.
	roots      []*Node
	blockedSCC []bool
	tj         tarjan

	// stats
	maxSCC      int
	execCount   uint64
	sccSizes    []int
	blockedPeak int
}

// cmpSeqID is the deterministic (seq, id) execution order.
func cmpSeqID(a, b *Node) int {
	if a.Seq != b.Seq {
		if a.Seq < b.Seq {
			return -1
		}
		return 1
	}
	if a.ID.Less(b.ID) {
		return -1
	}
	if b.ID.Less(a.ID) {
		return 1
	}
	return 0
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		nodes:    make(map[ids.Dot]*Node),
		executed: make(map[ids.Dot]bool),
	}
}

// Commit adds a committed command. Committing the same id twice is a
// no-op (commits are idempotent).
func (g *Graph) Commit(id ids.Dot, seq uint64, deps []ids.Dot, cmd *command.Command) {
	if g.executed[id] {
		return
	}
	if _, ok := g.nodes[id]; ok {
		return
	}
	g.nodes[id] = &Node{ID: id, Seq: seq, Deps: deps, Cmd: cmd}
}

// IsCommitted reports whether id has been committed (or executed).
func (g *Graph) IsCommitted(id ids.Dot) bool {
	if g.executed[id] {
		return true
	}
	_, ok := g.nodes[id]
	return ok
}

// Pending returns the number of committed-but-unexecuted commands.
func (g *Graph) Pending() int { return len(g.nodes) }

// MaxSCC returns the largest strongly connected component executed so far
// (a proxy for the dependency-chain pathology of §3.3).
func (g *Graph) MaxSCC() int { return g.maxSCC }

// Executed returns how many commands have been executed.
func (g *Graph) Executed() uint64 { return g.execCount }

// SCCSizes returns the sizes of all executed components, in execution
// order (for tests and metrics); the slice is shared, do not mutate.
func (g *Graph) SCCSizes() []int { return g.sccSizes }

// Executable runs Tarjan over the committed subgraph and returns every
// command that may now execute, in execution order. A strongly connected
// component executes only if none of its members depends (transitively)
// on an uncommitted command. Returned commands are removed from the
// graph.
func (g *Graph) Executable() []*Node {
	if len(g.nodes) == 0 {
		return nil
	}
	t := &g.tj
	t.g = g
	t.counter = 0
	stack := t.stack[:cap(t.stack)]
	clear(stack) // unpin nodes from the previous drain
	t.stack = stack[:0]
	sccs := t.sccs[:cap(t.sccs)]
	clear(sccs)
	t.sccs = sccs[:0]
	roots := g.roots[:0]
	for _, n := range g.nodes {
		n.visited = false
		n.onStack = false
		roots = append(roots, n)
	}
	// Deterministic DFS roots so that independent components execute in
	// the same (seq, id) order at every replica.
	slices.SortFunc(roots, cmpSeqID)
	for _, n := range roots {
		if !n.visited {
			t.strongConnect(n)
		}
	}
	clear(roots) // do not pin executed nodes until the next drain
	g.roots = roots[:0]
	// t.sccs is in reverse topological order of the condensation
	// (Tarjan emits an SCC only after all SCCs it depends on): execute
	// components in emission order, skipping components that are blocked
	// (depend on an uncommitted command or on a blocked component).
	if cap(g.blockedSCC) < len(t.sccs) {
		g.blockedSCC = make([]bool, len(t.sccs))
	}
	blockedSCC := g.blockedSCC[:len(t.sccs)]
	clear(blockedSCC)
	var out []*Node
	for i, scc := range t.sccs {
		blocked := false
		for _, n := range scc {
			for _, d := range n.Deps {
				if g.executed[d] {
					continue
				}
				dep, committed := g.nodes[d]
				if !committed {
					blocked = true
					break
				}
				// Dependency inside this same SCC is fine; otherwise it
				// was emitted earlier — blocked iff that SCC is blocked.
				if dep.sccIndex != i && blockedSCC[dep.sccIndex] {
					blocked = true
					break
				}
			}
			if blocked {
				break
			}
		}
		blockedSCC[i] = blocked
		if blocked {
			continue
		}
		slices.SortFunc(scc, cmpSeqID)
		if len(scc) > g.maxSCC {
			g.maxSCC = len(scc)
		}
		g.sccSizes = append(g.sccSizes, len(scc))
		for _, n := range scc {
			g.executed[n.ID] = true
			g.execCount++
			delete(g.nodes, n.ID)
			out = append(out, n)
		}
	}
	if p := len(g.nodes); p > g.blockedPeak {
		g.blockedPeak = p
	}
	return out
}

// BlockedPeak returns the largest number of committed-but-blocked
// commands observed.
func (g *Graph) BlockedPeak() int { return g.blockedPeak }

// tarjan is the classic iterative-enough recursion (dependency chains in
// tests are short; the simulator bounds graph sizes). One instance lives
// in the Graph and is reset per Executable call so its stack and SCC
// list are reused.
type tarjan struct {
	g       *Graph
	counter int
	stack   []*Node
	sccs    [][]*Node
}

func (t *tarjan) strongConnect(n *Node) {
	n.visited = true
	n.index = t.counter
	n.lowlink = t.counter
	t.counter++
	t.stack = append(t.stack, n)
	n.onStack = true

	for _, d := range n.Deps {
		if t.g.executed[d] {
			continue
		}
		m, ok := t.g.nodes[d]
		if !ok {
			continue // uncommitted: handled by the blocked check later
		}
		if !m.visited {
			t.strongConnect(m)
			if m.lowlink < n.lowlink {
				n.lowlink = m.lowlink
			}
		} else if m.onStack {
			if m.index < n.lowlink {
				n.lowlink = m.index
			}
		}
	}

	if n.lowlink == n.index {
		var scc []*Node
		for {
			m := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			m.onStack = false
			m.sccIndex = len(t.sccs)
			scc = append(scc, m)
			if m == n {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}
