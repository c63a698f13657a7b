// Package proto defines the contract between replication protocols and the
// runtimes that drive them (the discrete-event simulator and the TCP
// cluster runtime).
//
// Protocols are deterministic state machines: every input (a submitted
// command, a delivered message, a periodic tick) returns a list of output
// actions. Protocols never spawn goroutines, read clocks, or perform I/O;
// that makes them trivially testable and lets the same code run under
// simulation and over a real network.
package proto

import (
	"io"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
)

// Message is a protocol message. Concrete types live in each protocol
// package; runtimes treat them opaquely (the cluster runtime serializes
// them through the binary codec of wire.go, so every message type must
// implement BinaryMessage and register its decoder).
type Message interface {
	// Size returns an approximate wire size in bytes, used by the
	// simulator's network model.
	Size() int
}

// Action is an output of a protocol step: send a message to a set of
// processes. Self-addressed sends are allowed and must be delivered
// immediately by the runtime (the paper assumes self-messages are
// delivered instantaneously).
type Action struct {
	To  []ids.ProcessID
	Msg Message
}

// Send builds an action addressed to the given processes.
func Send(msg Message, to ...ids.ProcessID) Action {
	return Action{To: to, Msg: msg}
}

// Executed records one command execution at one process for one shard:
// the execute_p(c) upcall of the PSMR specification.
type Executed struct {
	Cmd    *command.Command
	Shard  ids.ShardID
	Result *command.Result
}

// Stable records one command whose execution order became final at one
// process for one shard, in delivery order. Replicas running in deferred-
// apply mode (see DeferredApplier) emit Stable entries instead of applying
// commands inline, so a runtime can apply them to the state machine off
// the protocol's critical section. Multi marks commands accessing more
// than one shard (the protocol already knows the access set, sparing
// runtimes a per-op re-hash when routing cross-shard results).
type Stable struct {
	Cmd   *command.Command
	Shard ids.ShardID
	TS    uint64
	Multi bool
}

// DeferredApplier is implemented by replicas that can hand execution-
// stable commands to the runtime instead of applying them inline under
// the protocol lock. The contract: after SetDeferredApply(true), protocol
// steps append to an internal stable queue in execution order; the
// runtime drains it with DrainStable (serialized with Submit/Handle/Tick,
// like Drain) and applies each command with ApplyStable, which must be
// safe to call concurrently with protocol steps (it only touches the
// state machine, never protocol state). Applying in DrainStable order
// preserves the replica's execution order. ts is the command's final
// timestamp (Stable.TS): replicas that track an applied watermark use it
// to make re-applies idempotent, which lets runtimes replay a write-ahead
// log through the same entry point.
type DeferredApplier interface {
	SetDeferredApply(on bool)
	DrainStable() []Stable
	ApplyStable(cmd *command.Command, ts uint64) *command.Result
}

// Durable is implemented by replicas whose runtime persists execution
// state (internal/cluster nodes started with a data directory). The
// runtime records applied commands in a write-ahead log and periodically
// snapshots the state machine; on restart it replays snapshot+log into a
// fresh replica via ApplyStable, then calls Restore exactly once — before
// any protocol step — with the recovered protocol watermarks:
//
//   - clock: the logical-clock reservation. The restarted clock must be
//     at least any value the previous incarnation reached, so no
//     timestamp promised (attached or detached) before the crash is ever
//     promised again.
//   - nextSeq: the command-id reservation, so no Dot is minted twice
//     across incarnations.
//   - wmTS/wmID: the applied watermark of the recovered state machine.
//     Execution resumes above it; commands that re-commit at or below it
//     (peers replaying history the restarted replica forgot) are skipped
//     rather than applied twice.
//
// SnapshotTo and RestoreFrom serialize the state machine together with
// its applied watermark; SnapshotTo must be consistent under concurrent
// applies (the state machine carries its own lock), which also lets a
// live node answer a restarting peer's state-catch-up request. Clock and
// AppliedWM expose the values the runtime persists: Clock must be read
// under the runtime's protocol lock, AppliedWM is safe anytime.
type Durable interface {
	Clock() uint64
	AppliedWM() (ts uint64, id ids.Dot)
	Restore(clock, nextSeq, wmTS uint64, wmID ids.Dot)
	//tempo:blocks serializes the full state machine to w
	SnapshotTo(w io.Writer) error
	//tempo:blocks reads and applies a full snapshot from r
	RestoreFrom(r io.Reader) (wmTS uint64, wmID ids.Dot, err error)
}

// Replica is a protocol instance at one process (replicating one shard).
type Replica interface {
	// ID returns the process id of this replica.
	ID() ids.ProcessID

	// Submit hands a client command to this process, which must
	// replicate one of the shards the command accesses. It returns the
	// protocol messages to send.
	Submit(cmd *command.Command) []Action

	// Handle delivers a message from another process (or from self).
	Handle(from ids.ProcessID, msg Message) []Action

	// Tick drives periodic work: promise broadcasting, recovery
	// timeouts, batch flushing. now is the runtime's current time.
	Tick(now time.Duration) []Action

	// Drain returns the commands executed since the last call, in
	// execution order. Runtimes use it to complete client requests and
	// to feed the correctness checker.
	Drain() []Executed
}

// IDMinter is implemented by replicas that can mint globally-unique
// command identifiers on behalf of clients. The cluster runtime requires
// it: each submitted client command is stamped with NextID before it
// enters the protocol, so waiters can claim completion by Dot. NextID is
// called under the runtime's protocol lock (serialized with
// Submit/Handle/Tick).
type IDMinter interface {
	NextID() ids.Dot
}

// Joiner is implemented by replicas whose slot can be taken over by a
// fresh successor process (dynamic membership's drain-less replace):
// the successor must never mint a command id, nor promise a
// logical-clock timestamp, that its dead predecessor may already have
// handed out.
//
//   - ObservedFrom returns the highest logical-clock value and the
//     highest command-sequence number this replica has observed from
//     process pid (promises it made, command ids it minted).
//   - JoinFloor raises the replica's own clock and id-sequence floors;
//     called once before any protocol step on a successor, with the
//     max of the live peers' ObservedFrom answers plus a safety margin
//     (membership.FrontierMargin documents the argument).
//
// Both run under the runtime's protocol lock.
type Joiner interface {
	ObservedFrom(pid ids.ProcessID) (clock, seq uint64)
	JoinFloor(clock, seq uint64)
}

// LeaderAware is implemented by protocols that depend on a leader oracle
// (the Ω failure detector of the paper, or the FPaxos leader). Runtimes
// call SetLeader when the oracle's output changes.
type LeaderAware interface {
	SetLeader(rank ids.Rank)
}

// GCReporter is implemented by replicas that keep per-command state until
// every replica of the shard has executed the command, and so can say
// which replica is pinning memory: liveCmds is the number of commands
// state is held for, lagTS how far this replica's executed watermark is
// ahead of the lowest one it knows of in the shard (in logical
// timestamps), and holder the rank reporting that lowest watermark (this
// replica's own rank when nobody is behind it). Called under the
// runtime's protocol lock.
type GCReporter interface {
	GCStats() (liveCmds int, lagTS uint64, holder ids.Rank)
}

// Crashable is implemented by replicas that support fail-stop crash
// injection in tests; after Crash, the runtime stops delivering messages
// to and from the replica.
type Crashable interface {
	Crash()
}
