package tempo

import (
	"container/heap"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// tsDot orders committed commands by (timestamp, id), the execution order
// of the protocol.
type tsDot struct {
	ts uint64
	id ids.Dot
}

func (a tsDot) less(b tsDot) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.id.Less(b.id)
}

// tsDotHeap is a min-heap of committed-but-unexecuted commands.
type tsDotHeap struct{ h tsDotSlice }

type tsDotSlice []tsDot

// Len implements heap.Interface.
func (s tsDotSlice) Len() int { return len(s) }

// Less implements heap.Interface: the protocol's (ts, id) execution order.
func (s tsDotSlice) Less(i, j int) bool { return s[i].less(s[j]) }

// Swap implements heap.Interface.
func (s tsDotSlice) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

// Push implements heap.Interface.
func (s *tsDotSlice) Push(x interface{}) { *s = append(*s, x.(tsDot)) }

// Pop implements heap.Interface.
func (s *tsDotSlice) Pop() interface{} {
	old := *s
	n := len(old)
	x := old[n-1]
	*s = old[:n-1]
	return x
}

func (h *tsDotHeap) push(x tsDot) { heap.Push(&h.h, x) }
func (h *tsDotHeap) pop() tsDot   { return heap.Pop(&h.h).(tsDot) }
func (h *tsDotHeap) peek() tsDot  { return h.h[0] }
func (h *tsDotHeap) len() int     { return len(h.h) }

// advanceExecution runs the execution protocol (Algorithm 2/6): pop
// committed commands whose timestamps are stable per Theorem 1, in
// (ts, id) order; single-shard commands execute immediately, multi-shard
// commands exchange MStable barriers first.
func (p *Process) advanceExecution() []proto.Action {
	var acts []proto.Action
	stable := p.tracker.Stable()
	for p.committed.len() > 0 && p.committed.peek().ts <= stable {
		td := p.committed.pop()
		p.ready = append(p.ready, td)
		// Signal stability to the other shards of the command as soon as
		// it is locally stable (line 101); sending eagerly (before head-
		// of-line commands execute) is safe because the signal only
		// states a fact about this shard.
		ci := p.cmds[td.id]
		if ci != nil && len(ci.shards) > 1 && !ci.sentStable {
			ci.sentStable = true
			ci.markStable(p.shard)
			if to := p.stableTargets(ci); len(to) > 0 {
				acts = append(acts, proto.Send(&MStable{ID: td.id, Shard: p.shard}, to...))
			}
		}
	}
	// Execute ready commands in order; a multi-shard head blocks until
	// every accessed shard signalled stability (line 102).
	logged := p.executed.len()
	for len(p.ready) > 0 {
		td := p.ready[0]
		ci := p.cmds[td.id]
		if ci == nil {
			p.ready = p.ready[1:]
			continue
		}
		if len(ci.shards) > 1 && !p.stableAtAllShards(ci) {
			break
		}
		p.execute(td, ci)
		p.ready = p.ready[1:]
	}
	if p.executed.len() != logged {
		// The own watermark moved; when this process was the slowest of
		// the shard (or is all of it) that releases commands.
		p.collectExecuted()
	}
	return acts
}

// stableTargets returns the sibling-shard processes this replica signals
// stability to. A process only needs the signal from one replica per
// accessed shard (the paper waits on I^i_c, the closest replica of each
// shard), so we signal the co-located replicas — one per sibling shard
// per site — rather than broadcasting to all of I_c. If a sibling shard
// has no replica at this site, we fall back to all its replicas.
func (p *Process) stableTargets(ci *cmdInfo) []ids.ProcessID {
	site := p.topo.Process(p.id).Site
	var to []ids.ProcessID
	for _, s := range ci.shards {
		if s == p.shard {
			continue
		}
		if q := p.topo.ProcessAt(site, s); q != 0 {
			to = append(to, q)
		} else {
			to = append(to, p.topo.ShardProcesses(s)...)
		}
	}
	return to
}

func (p *Process) stableAtAllShards(ci *cmdInfo) bool {
	for _, s := range ci.shards {
		if !ci.stableAt(s) {
			return false
		}
	}
	return true
}

// execute performs the execute_p(c) upcall and advances the executed
// watermark. Inline mode (the default) applies the command to the local
// shard's state immediately; deferred mode only records that the
// command's execution order is final — the runtime applies it via
// ApplyStable, off the protocol's critical section. Delivery order is
// fixed here either way, so the watermark (which gates promise GC, not
// reads — reads are themselves commands) may advance before the deferred
// apply lands.
//
// A command at or below the executed watermark was already applied by a
// previous incarnation of this process (the state was restored from a
// snapshot or replayed log covering it, see Restore); re-delivered
// history — e.g. a commit replay answering an MCommitRequest after a
// restart emptied the tracker's committed set — only moves the phase, so
// nothing is applied twice. Either way the command joins the execution
// log, whose prefix collectExecuted releases; a replayed one sits behind
// newer entries and goes as soon as they do.
func (p *Process) execute(td tsDot, ci *cmdInfo) {
	ci.phase = PhaseExecute
	p.executed.push(td)
	point := TSWatermark{TS: td.ts, ID: td.id}
	if !p.executedWM.less(point) {
		return // at or below the watermark: executed before a restart
	}
	if p.deferApply {
		p.stableOut = append(p.stableOut, proto.Stable{
			Cmd:   ci.cmd,
			Shard: p.shard,
			TS:    td.ts,
			Multi: len(ci.shards) > 1,
		})
	} else {
		res := p.store.ApplyAt(ci.cmd, p.shard, p.topo.ShardOf, td.ts)
		p.executedOut = append(p.executedOut, proto.Executed{
			Cmd:    ci.cmd,
			Shard:  p.shard,
			Result: res,
		})
	}
	p.executedWM = point
}

// SetDeferredApply implements proto.DeferredApplier: when on, stable
// commands are emitted through DrainStable instead of being applied
// inline by protocol steps. Switch modes only before commands flow.
func (p *Process) SetDeferredApply(on bool) { p.deferApply = on }

// DrainStable implements proto.DeferredApplier: it returns the commands
// whose execution order became final since the last call, in execution
// order. Like Drain, calls are serialized with Submit/Handle/Tick.
func (p *Process) DrainStable() []proto.Stable {
	out := p.stableOut
	p.stableOut = nil
	return out
}

// ApplyStable implements proto.DeferredApplier: it applies one stable
// command (with final timestamp ts) to the local shard's store and
// returns its results. It touches only the store (which has its own
// lock) and immutable topology, so the runtime may call it concurrently
// with protocol steps. The store's applied-watermark guard makes
// re-applies no-ops, so WAL replay after a crash feeds records through
// this same entry point.
func (p *Process) ApplyStable(cmd *command.Command, ts uint64) *command.Result {
	return p.store.ApplyAt(cmd, p.shard, p.topo.ShardOf, ts)
}

// onMStable records that a sibling shard reached stability for a command
// (Algorithm 3/6).
func (p *Process) onMStable(m *MStable) []proto.Action {
	ci := p.info(m.ID)
	ci.markStable(m.Shard)
	return nil
}
