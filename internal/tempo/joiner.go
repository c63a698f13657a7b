package tempo

import (
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// The membership frontier (proto.Joiner): what a successor process
// taking over a dead replica's slot must never reuse.
//
// A Tempo process hands out two kinds of values that outlive it:
// logical-clock timestamps (attached and detached promises, Algorithm
// 2) and command ids (Dots minted for clients). A successor reusing
// either would violate the promise discipline ("a timestamp is
// promised at most once per rank") or mint a duplicate Dot. Live shard
// peers observe both continuously — promises via the MPromises gossip
// and per-message proposals (folded into the promise tracker), ids via
// every message that references a command (folded into seenSeq by
// info) — so max-ing ObservedFrom over the live peers plus
// membership.FrontierMargin bounds everything the dead incarnation
// can still inject into a quorum. See membership.FrontierMargin for
// the precise assumption (surviving peers continuously live since the
// dead node's last communication); this is the same fail-stop envelope
// as the paper's recovery protocol, which the runtime drives anyway to
// finish the dead rank's in-flight commands (Algorithm 5 — recovery
// needs only the id and rank, which the successor inherits, never the
// predecessor's local state).

var _ proto.Joiner = (*Process)(nil)

// noteDot records the highest command-sequence number seen from each
// shard member — the id half of the frontier.
func (p *Process) noteDot(id ids.Dot) {
	if r := p.rankOfProc(id.Source); r != 0 && id.Seq > p.seenSeq[r-1] {
		p.seenSeq[r-1] = id.Seq
	}
}

// ObservedFrom implements proto.Joiner: the highest promised timestamp
// and minted command-sequence number this replica has observed from
// pid (0, 0 when pid does not replicate this shard).
func (p *Process) ObservedFrom(pid ids.ProcessID) (clock, seq uint64) {
	r := p.rankOfProc(pid)
	if r == 0 {
		return 0, 0
	}
	return p.tracker.Max(r), p.seenSeq[r-1]
}

// JoinFloor implements proto.Joiner: it raises the clock and id floors
// before the successor's first protocol step. Restore already has
// exactly the max-in semantics required.
//
// Beyond raising the floors, the successor covers the predecessor's
// entire timestamp range (1..clock) with detached promises. The dead
// incarnation's promises can never be completed: detached ranges it
// skipped but did not gossip before dying, and attached promises of
// commands that will never commit, leave permanent holes in the rank's
// contiguous frontier — and collection only ever folds a process's OWN
// attached promises into its detached set, so no survivor can fill
// them. Left uncovered, each replacement permanently freezes one
// rank's frontier; after f+1 replacements the Theorem 1 median is
// stuck and execution halts cluster-wide. Covering the range is sound
// under the same envelope as the floor itself (see FrontierMargin):
// every timestamp the dead incarnation handed out is at most the
// floor, commands already committed carry their final timestamps in
// the committed queues regardless of promise state, and the recovery
// protocol (Algorithm 5) decides the dead rank's in-flight commands —
// whose live quorum members hold their own attached promises, keeping
// stability below the undecided timestamps until the decision lands.
func (p *Process) JoinFloor(clock, seq uint64) {
	p.Restore(clock, seq, 0, ids.Dot{})
	if p.clock > 0 {
		p.addOwnDetached(1, p.clock)
	}
}
