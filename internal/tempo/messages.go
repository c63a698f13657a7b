// Package tempo implements the Tempo protocol of the paper "Efficient
// Replication via Timestamp Stability" (EuroSys 2021): a leaderless
// partial state-machine replication protocol that timestamps every command
// and executes it once its timestamp is stable.
//
// The implementation follows Algorithms 1-6 of the paper:
//
//   - the commit protocol with fast paths (count(t) >= f over a fast
//     quorum of size ⌊r/2⌋+f) and Flexible-Paxos slow paths over f+1
//     processes (Algorithm 1/5);
//   - the execution protocol based on timestamp stability detected from
//     attached and detached promises (Algorithm 2/6, Theorem 1);
//   - the multi-partition extension where a command's final timestamp is
//     the maximum over its per-partition timestamps, with MBump for
//     faster stability and MStable barriers (Algorithm 3);
//   - the recovery protocol with round-robin ballots (Algorithm 4/5);
//   - the liveness mechanisms of Appendix B (MRecNAck ballot catch-up,
//     MCommitRequest, periodic MPayload for pending commands).
package tempo

import (
	"tempo/internal/command"
	"tempo/internal/ids"
)

// Phase is the journey of a command through the protocol (Figure 1).
type Phase uint8

const (
	// PhaseStart is the initial phase: nothing known.
	PhaseStart Phase = iota
	// PhasePayload means the payload is known (MPayload received).
	PhasePayload
	// PhasePropose means a timestamp proposal was computed in the
	// MPropose handler.
	PhasePropose
	// PhaseRecoverR means the proposal was computed in the MRec handler.
	PhaseRecoverR
	// PhaseRecoverP means the proposal was computed in the MPropose
	// handler and an MRec was subsequently processed.
	PhaseRecoverP
	// PhaseCommit means the final timestamp is known.
	PhaseCommit
	// PhaseExecute means the command has been executed.
	PhaseExecute
)

// String names the phase as in Figure 1 of the paper.
func (p Phase) String() string {
	switch p {
	case PhaseStart:
		return "start"
	case PhasePayload:
		return "payload"
	case PhasePropose:
		return "propose"
	case PhaseRecoverR:
		return "recover-r"
	case PhaseRecoverP:
		return "recover-p"
	case PhaseCommit:
		return "commit"
	case PhaseExecute:
		return "execute"
	}
	return "?"
}

// pending reports whether the phase is in the pending set of the paper:
// payload ∪ propose ∪ recover-r ∪ recover-p.
func (p Phase) pending() bool {
	return p == PhasePayload || p == PhasePropose || p == PhaseRecoverR || p == PhaseRecoverP
}

// Quorums maps each shard accessed by a command to the fast quorum used at
// that shard. The first element of each quorum is the shard's coordinator.
type Quorums map[ids.ShardID][]ids.ProcessID

func (q Quorums) size() int {
	n := 0
	for _, ps := range q {
		n += 8 + 4*len(ps)
	}
	return n
}

// RankTS carries one fast-quorum member's promises on the wire: the
// attached promise TS plus the detached run [DetLo, DetHi] its
// MProposeAck carried (zero DetLo means no detached promises).
// Broadcasting these in MCommit is the §3.2 optimization that makes a
// committed timestamp usually stable immediately.
//
//tempo:wire encode=MCommit.AppendBinary decode=decodeMCommit
type RankTS struct {
	Rank         ids.Rank
	TS           uint64
	DetLo, DetHi uint64
}

// TSWatermark is the executed watermark of a process: commands are
// executed in (TS, ID) order, so everything up to the watermark has been
// executed by the sender.
//
//tempo:wire encode=appendWM decode=readWM
type TSWatermark struct {
	TS uint64
	ID ids.Dot
}

// less orders watermark points by (ts, id).
func (w TSWatermark) less(o TSWatermark) bool {
	if w.TS != o.TS {
		return w.TS < o.TS
	}
	return w.ID.Less(o.ID)
}

// MSubmit asks a process to act as a command's coordinator for its shard
// (line 4 of Algorithm 1). The submitting process sends it to one replica
// of each shard the command accesses.
//
//tempo:wire
type MSubmit struct {
	ID      ids.Dot
	Cmd     *command.Command
	Quorums Quorums
}

// MPayload carries the command payload to the processes outside the fast
// quorum (line 8).
//
//tempo:wire
type MPayload struct {
	ID      ids.Dot
	Cmd     *command.Command
	Quorums Quorums
}

// MPropose asks a fast-quorum process for a timestamp proposal (line 7).
//
//tempo:wire
type MPropose struct {
	ID      ids.Dot
	Cmd     *command.Command
	Quorums Quorums
	TS      uint64 // coordinator's own proposal m
}

// MProposeAck returns a timestamp proposal to the coordinator (line 16).
// DetachedLo/Hi piggyback the sender's detached promises (§3.2
// optimization): the maximal detached run ending just below TS, which
// covers the range the proposal skipped and every bump since the
// sender's previous attached promise; an empty range means none.
//
//tempo:wire
type MProposeAck struct {
	ID         ids.Dot
	TS         uint64
	DetachedLo uint64
	DetachedHi uint64
}

// MBump tells nearby processes of sibling shards to bump their clocks to
// the sender's proposal, generating detached promises early (Algorithm 3,
// line 68; "faster stability").
//
//tempo:wire
type MBump struct {
	ID ids.Dot
	TS uint64
}

// MCommit announces the timestamp committed for a command at one shard
// (lines 20/33). Attached carries the attached promises of the shard's
// fast quorum so receivers can advance stability immediately (§3.2).
//
//tempo:wire
type MCommit struct {
	ID       ids.Dot
	Shard    ids.ShardID
	TS       uint64
	Attached []RankTS
}

// MConsensus is Flexible Paxos phase 2 for the slow path (line 21).
//
//tempo:wire
type MConsensus struct {
	ID     ids.Dot
	TS     uint64
	Ballot ids.Ballot
}

// MConsensusAck accepts a consensus proposal (line 30).
//
//tempo:wire
type MConsensusAck struct {
	ID     ids.Dot
	Ballot ids.Ballot
}

// MRec starts recovery of a command at a ballot (Algorithm 4, line 75).
//
//tempo:wire
type MRec struct {
	ID     ids.Dot
	Ballot ids.Ballot
}

// MRecAck answers MRec with the local timestamp, phase and accepted
// ballot (line 85).
//
//tempo:wire
type MRecAck struct {
	ID       ids.Dot
	TS       uint64
	Phase    Phase
	ABallot  ids.Ballot
	Ballot   ids.Ballot
	Attached bool // whether TS is a genuine proposal (attached promise)
}

// MRecNAck tells a would-be recovery coordinator that its ballot is stale
// (Appendix B, line 81).
//
//tempo:wire
type MRecNAck struct {
	ID     ids.Dot
	Ballot ids.Ballot
}

// MCommitRequest asks a process that has committed a command to share the
// payload and commit information (Appendix B, line 86).
//
//tempo:wire
type MCommitRequest struct {
	ID ids.Dot
}

// MPromises periodically broadcasts the sender's promises within its shard
// (Algorithm 2, line 45). Detached is an interval-encoded set (pairs of
// lo,hi); Attached lists the sender's attached promises not yet folded
// away; WM is the sender's executed watermark, used for promise GC.
//
//tempo:wire
type MPromises struct {
	Rank     ids.Rank
	Detached []uint64
	Attached []AttachedWire
	WM       TSWatermark
}

// AttachedWire is an attached promise on the wire, including the command
// id it is attached to.
//
//tempo:wire encode=MPromises.AppendBinary decode=decodeMPromises
type AttachedWire struct {
	ID ids.Dot
	TS uint64
}

// MStable signals that a command's timestamp is stable at the sender's
// shard (Algorithm 3, line 64). A process executes a multi-shard command
// only after every accessed shard signalled stability.
//
//tempo:wire
type MStable struct {
	ID    ids.Dot
	Shard ids.ShardID
}

// Message sizes: approximate wire sizes used by the simulator's bandwidth
// model. Command payloads dominate.

const hdr = 24 // id + type tag

func cmdSize(c *command.Command) int {
	if c == nil {
		return 0
	}
	return c.SizeBytes()
}

// Size implements proto.Message.
func (m *MSubmit) Size() int { return hdr + cmdSize(m.Cmd) + m.Quorums.size() }

// Size implements proto.Message.
func (m *MPayload) Size() int { return hdr + cmdSize(m.Cmd) + m.Quorums.size() }

// Size implements proto.Message.
func (m *MPropose) Size() int { return hdr + 8 + cmdSize(m.Cmd) + m.Quorums.size() }

// Size implements proto.Message.
func (m *MProposeAck) Size() int { return hdr + 24 }

// Size implements proto.Message.
func (m *MBump) Size() int { return hdr + 8 }

// Size implements proto.Message.
func (m *MCommit) Size() int { return hdr + 12 + 28*len(m.Attached) }

// Size implements proto.Message.
func (m *MConsensus) Size() int { return hdr + 16 }

// Size implements proto.Message.
func (m *MConsensusAck) Size() int { return hdr + 8 }

// Size implements proto.Message.
func (m *MRec) Size() int { return hdr + 8 }

// Size implements proto.Message.
func (m *MRecAck) Size() int { return hdr + 26 }

// Size implements proto.Message.
func (m *MRecNAck) Size() int { return hdr + 8 }

// Size implements proto.Message.
func (m *MCommitRequest) Size() int { return hdr }

// Size implements proto.Message.
func (m *MPromises) Size() int {
	return hdr + 4 + 8*len(m.Detached) + 24*len(m.Attached) + 24
}

// Size implements proto.Message.
func (m *MStable) Size() int { return hdr + 4 }
