// Package epaxos implements the dependency-based leaderless baselines of
// the paper: EPaxos (Moraru et al., SOSP 2013) and Atlas (Enes et al.,
// EuroSys 2020), which differ in fast-quorum size and fast-path condition.
// The same implementation generalized to multiple shards — per-shard
// dependency collection, union of per-shard dependencies, and non-genuine
// commit broadcast — is the paper's improved Janus baseline ("Janus*",
// §6): VariantAtlas with Config.NonGenuineCommit.
//
// Commands are committed with explicit dependency sets and executed by the
// strongly-connected-component executor of internal/depgraph; this is the
// execution mechanism whose unbounded chains cause the tail-latency
// pathologies the paper measures (§3.3, Appendix D).
//
// Recovery is not implemented for the baselines (the paper's evaluation
// runs them failure-free); Tempo, the paper's contribution, has full
// recovery. The baselines run on the simulator (internal/sim) and on
// testnet only: messages travel as Go values, so they have no wire codec,
// and the cluster runtime runs Tempo alone.
package epaxos

import (
	"tempo/internal/command"
	"tempo/internal/ids"
)

// Quorums maps each shard accessed by a command to the fast quorum used
// there; the first element is the shard's coordinator.
type Quorums map[ids.ShardID][]ids.ProcessID

func (q Quorums) size() int {
	n := 0
	for _, ps := range q {
		n += 8 + 4*len(ps)
	}
	return n
}

// ESubmit asks a process to coordinate the command at its shard.
type ESubmit struct {
	ID      ids.Dot
	Cmd     *command.Command
	Quorums Quorums
}

// EPreAccept asks a fast-quorum process for its dependency/seq report.
type EPreAccept struct {
	ID      ids.Dot
	Cmd     *command.Command
	Quorums Quorums
	Seq     uint64
	Deps    []ids.Dot
}

// EPreAcceptAck reports the merged dependencies and sequence number.
type EPreAcceptAck struct {
	ID   ids.Dot
	Seq  uint64
	Deps []ids.Dot
}

// EAccept is the slow-path (Paxos-Accept) message for the shard-local
// (seq, deps) decision.
type EAccept struct {
	ID     ids.Dot
	Ballot ids.Ballot
	Seq    uint64
	Deps   []ids.Dot
}

// EAcceptAck acknowledges EAccept.
type EAcceptAck struct {
	ID     ids.Dot
	Ballot ids.Ballot
}

// ECommit announces the shard-local decision. It carries the payload so
// that processes outside the fast quorum (and, for Janus, outside the
// command's shards) learn the command.
type ECommit struct {
	ID    ids.Dot
	Shard ids.ShardID
	Cmd   *command.Command
	Seq   uint64
	Deps  []ids.Dot
}

const hdr = 24

func cmdSize(c *command.Command) int {
	if c == nil {
		return 0
	}
	return c.SizeBytes()
}

// Size implements proto.Message.
func (m *ESubmit) Size() int { return hdr + cmdSize(m.Cmd) + m.Quorums.size() }

// Size implements proto.Message.
func (m *EPreAccept) Size() int {
	return hdr + 8 + cmdSize(m.Cmd) + m.Quorums.size() + 16*len(m.Deps)
}

// Size implements proto.Message.
func (m *EPreAcceptAck) Size() int { return hdr + 8 + 16*len(m.Deps) }

// Size implements proto.Message.
func (m *EAccept) Size() int { return hdr + 16 + 16*len(m.Deps) }

// Size implements proto.Message.
func (m *EAcceptAck) Size() int { return hdr + 8 }

// Size implements proto.Message.
func (m *ECommit) Size() int { return hdr + 12 + cmdSize(m.Cmd) + 16*len(m.Deps) }
