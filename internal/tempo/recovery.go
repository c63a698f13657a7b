package tempo

import (
	"slices"
	"time"

	"tempo/internal/ids"
	"tempo/internal/proto"
)

// periodicRecovery implements the periodic block of Algorithm 6 (line 75):
// re-broadcast payloads of long-pending commands and, if this process is
// the shard leader (per the Ω failure detector), take over their
// coordination. It is the fallback for coordinators that are alive but
// stuck; recoverSilent handles the ones that died.
func (p *Process) periodicRecovery() []proto.Action {
	return p.recoverOverdue(p.cfg.RecoveryTimeout, nil)
}

// noteHeard closes the failure detector's observation period at a Tick:
// every rank heard from since the previous Tick was alive at this one.
// The time is the Tick's, never a receive time, so a tick loop that runs
// late cannot make a peer that kept sending look silent.
func (p *Process) noteHeard() {
	for i, h := range p.heard {
		if h {
			p.heard[i] = false
			p.silentSince[i] = p.now
			p.lastHeard = p.now
		}
	}
}

// suspected reports whether the failure detector suspects a process of
// this shard: nothing has arrived from it, not even the MPromises every
// peer sends each PromiseInterval, for suspectAfter — counted up to the
// last Tick that heard from some other rank. When nothing arrives from
// anyone, the stall is more likely this process's own (a starved reader,
// a saturated CPU) than every peer's, and a leader that hears nobody
// could not gather a recovery quorum anyway.
func (p *Process) suspected(q ids.ProcessID) bool {
	r := p.rankOfProc(q)
	return r != 0 && r != p.rank && p.lastHeard-p.silentSince[r-1] >= p.suspectAfter
}

// anySuspected reports whether some other rank of the shard is suspected.
func (p *Process) anySuspected() bool {
	for _, q := range p.shardOthers {
		if p.suspected(q) {
			return true
		}
	}
	return false
}

// recoverSilent is Algorithm 4's trigger: at the shard leader, recover
// every command that has been pending for suspectAfter and whose
// initial coordinator at this shard is suspected. Such a command's
// fast-quorum members hold attached promises for it that count only once
// it commits, so until it does it holds the whole shard's stability
// frontier back; waiting for RecoveryTimeout would stall every client.
//
// A command whose ballot this process already owns is skipped: its
// recovery is under way, or has committed this shard's value while the
// command waits on another shard. A recovery takes two round trips, so
// on links slower than suspectAfter a new ballot each scan would void
// every answer to the last one; retries stay with periodicRecovery.
func (p *Process) recoverSilent() []proto.Action {
	return p.recoverOverdue(p.suspectAfter, func(ci *cmdInfo) bool {
		fq := ci.quorums[p.shard]
		return len(fq) > 0 && p.suspected(fq[0]) && ids.BallotLeader(ci.bal, p.r) != p.rank
	})
}

// recoverOverdue resends the payload of each command pending for at
// least age (and accepted by match, when set) and, at the shard leader,
// starts its recovery.
//
// It visits only what is pending (see prunePending), so a run costs what
// is pending plus O(1) per command created since the last prune — not
// the size of p.cmds, which also holds every command waiting for
// collection. Overdue commands are handled in Dot order, which makes the
// emitted actions a function of the message history alone.
func (p *Process) recoverOverdue(age time.Duration, match func(*cmdInfo) bool) []proto.Action {
	p.prunePending()
	var due []ids.Dot
	for _, id := range p.pendingQ {
		ci := p.cmds[id]
		if ci.phase.pending() && p.now-ci.enqueued >= age && (match == nil || match(ci)) {
			due = append(due, id)
		}
	}
	slices.SortFunc(due, func(a, b ids.Dot) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	var acts []proto.Action
	for _, id := range due {
		ci := p.cmds[id]
		if ci.cmd != nil {
			acts = append(acts, proto.Send(&MPayload{ID: id, Cmd: ci.cmd, Quorums: ci.quorums}, p.cmdProcesses(ci)...))
		}
		// The paper avoids disrupting a recovery led by this process; we
		// additionally retry a stalled self-led recovery (with a strictly
		// higher ballot) so that acceptors that lacked the payload at the
		// time of the first MRec eventually participate. recover resets
		// the command's timeout.
		if p.leader == p.rank {
			acts = append(acts, p.recover(id, ci)...)
		}
	}
	return acts
}

// recover starts a new ballot owned by this process (Algorithm 4,
// line 72).
func (p *Process) recover(id ids.Dot, ci *cmdInfo) []proto.Action {
	if !ci.phase.pending() {
		return nil
	}
	b := ids.NextBallot(p.rank, ci.bal, p.r)
	ci.coordBallot = b
	if ci.recAcks == nil {
		ci.recAcks = make([]*MRecAck, p.r)
	} else {
		for i := range ci.recAcks {
			ci.recAcks[i] = nil
		}
	}
	ci.nRecAcks = 0
	for i := range ci.consensusFrom {
		ci.consensusFrom[i] = false
	}
	ci.nConsensusAck = 0
	ci.enqueued = p.now
	p.statRecovered++
	return []proto.Action{proto.Send(&MRec{ID: id, Ballot: b}, p.shardProcs...)}
}

// onMRec is the acceptor side of recovery phase 1 (Algorithm 4, line 76).
func (p *Process) onMRec(from ids.ProcessID, m *MRec) []proto.Action {
	ci, ok := p.cmds[m.ID]
	if !ok || !ci.phase.pending() {
		// Either we know nothing of the command (no payload, so we could
		// not answer usefully) or it is already committed; in the latter
		// case replay the commit to help the recovering process.
		if ok && (ci.phase == PhaseCommit || ci.phase == PhaseExecute) {
			return p.onMCommitRequest(from, &MCommitRequest{ID: m.ID})
		}
		return nil
	}
	if ci.bal >= m.Ballot {
		return []proto.Action{proto.Send(&MRecNAck{ID: m.ID, Ballot: ci.bal}, from)}
	}
	attached := false
	if ci.bal == 0 {
		switch ci.phase {
		case PhasePayload:
			ci.ts = p.proposal(m.ID, ci, 0)
			ci.phase = PhaseRecoverR
		case PhasePropose:
			ci.phase = PhaseRecoverP
		}
	}
	if ci.phase == PhaseRecoverR || ci.phase == PhaseRecoverP {
		attached = ci.abal == 0 && ci.attachedMine != 0
	}
	ci.bal = m.Ballot
	ack := &MRecAck{
		ID:       m.ID,
		TS:       ci.ts,
		Phase:    ci.phase,
		ABallot:  ci.abal,
		Ballot:   m.Ballot,
		Attached: attached,
	}
	return []proto.Action{proto.Send(ack, from)}
}

// onMRecAck is the recovery coordinator gathering r−f phase-1 answers
// (Algorithm 4, line 86).
func (p *Process) onMRecAck(from ids.ProcessID, m *MRecAck) []proto.Action {
	ci, ok := p.cmds[m.ID]
	if !ok || ci.coordBallot != m.Ballot || ci.bal != m.Ballot {
		return nil
	}
	rank := p.rankOfProc(from)
	if rank == 0 {
		return nil
	}
	if ci.recAcks == nil {
		ci.recAcks = make([]*MRecAck, p.r)
	}
	if ci.recAcks[rank-1] != nil {
		return nil
	}
	ci.recAcks[rank-1] = m
	ci.nRecAcks++
	if ci.nRecAcks != p.r-p.f {
		return nil
	}
	// Decide the consensus proposal.
	var t uint64
	if k := highestAccepted(ci.recAcks); k != nil {
		// Someone accepted a consensus value: by the Paxos rules, adopt
		// the one with the highest accepted ballot (line 89).
		t = k.TS
	} else {
		// Nobody accepted a value. Compute I = Q ∩ fast quorum, and
		// decide whether the initial coordinator could have taken the
		// fast path (lines 92-95).
		fq := ci.quorums[p.shard]
		initial := ids.ProcessID(0)
		if len(fq) > 0 {
			initial = fq[0]
		}
		inFQ := func(q ids.ProcessID) bool {
			for _, x := range fq {
				if x == q {
					return true
				}
			}
			return false
		}
		var iMax uint64 // max proposal over I = Q ∩ fast quorum
		initialReplied := false
		anyRecoverR := false
		for i, ack := range ci.recAcks {
			if ack == nil {
				continue
			}
			q := p.rankToProc[i]
			if !inFQ(q) {
				continue
			}
			iMax = max64(iMax, ack.TS)
			if q == initial {
				initialReplied = true
			}
			if ack.Phase == PhaseRecoverR {
				anyRecoverR = true
			}
		}
		if initialReplied || anyRecoverR {
			// The fast path cannot have been taken: any majority max
			// respects Property 3; use the whole recovery quorum.
			for _, ack := range ci.recAcks {
				if ack != nil {
					t = max64(t, ack.TS)
				}
			}
		} else {
			// The fast path may have been taken: by Property 4, the max
			// over the surviving ⌊r/2⌋ fast-quorum processes recovers it.
			t = iMax
		}
	}
	p.recoveredAttached(ci)
	return []proto.Action{proto.Send(&MConsensus{ID: m.ID, TS: t, Ballot: m.Ballot}, p.shardProcs...)}
}

// recoveredAttached collects the genuine timestamp proposals reported in
// recovery acks so that the eventual MCommit can piggyback them as
// attached promises.
func (p *Process) recoveredAttached(ci *cmdInfo) {
	if ci.proposals == nil {
		ci.proposals = make([]uint64, p.r)
	}
	for i, ack := range ci.recAcks {
		if ack != nil && ack.Attached && ack.TS != 0 {
			if ci.proposals[i] == 0 {
				ci.nProposals++
			}
			ci.proposals[i] = ack.TS
		}
	}
}

func highestAccepted(acks []*MRecAck) *MRecAck {
	var best *MRecAck
	for _, a := range acks {
		if a == nil || a.ABallot == 0 {
			continue
		}
		if best == nil || a.ABallot > best.ABallot {
			best = a
		}
	}
	return best
}

// onMRecNAck performs ballot catch-up at a (would-be) recovery leader
// (Appendix B, line 82).
func (p *Process) onMRecNAck(m *MRecNAck) []proto.Action {
	ci, ok := p.cmds[m.ID]
	if !ok || p.leader != p.rank || ci.bal >= m.Ballot {
		return nil
	}
	ci.bal = m.Ballot
	if !ci.phase.pending() {
		return nil
	}
	return p.recover(m.ID, ci)
}
