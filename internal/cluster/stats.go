package cluster

import (
	"sync/atomic"

	"tempo/internal/metrics"
)

// nodeStats are the serving counters a node maintains on its hot paths
// (metrics.Counter: lock-free, incremented where the work happens,
// snapshotted by Stats for the -metrics-addr endpoint).
type nodeStats struct {
	submittedCmds  metrics.Counter // commands handed to the replica
	submittedOps   metrics.Counter // client ops inside those commands
	completedReqs  metrics.Counter // client requests answered with results
	appliedCmds    metrics.Counter // commands applied to the state machine
	crossSubmitted metrics.Counter // cross-shard commands submitted here
	watches        metrics.Counter // watch registrations served
	batchFlushes   metrics.Counter // submit batches flushed
	batchedOps     metrics.Counter // client ops that rode those batches

	// The replica's collection gauges (proto.GCReporter), sampled by
	// the tick loop while it holds n.mu anyway so Stats never takes the
	// protocol lock.
	liveCmds  atomic.Int64
	gcLagTS   atomic.Uint64
	gcLagRank atomic.Uint32
	// recoveredCmds is the replica's recovery count, sampled the same way.
	recoveredCmds atomic.Uint64
}

// sampleGC refreshes the collection gauges and the recovery count.
// Callers hold n.mu.
func (n *Node) sampleGC() {
	live, lag, holder := n.rep.GCStats()
	n.stat.liveCmds.Store(int64(live))
	n.stat.gcLagTS.Store(lag)
	n.stat.gcLagRank.Store(uint32(holder))
	_, _, recovered := n.rep.Stats()
	n.stat.recoveredCmds.Store(recovered)
}

// Stats is a point-in-time snapshot of a node's serving counters,
// exposed through the tempo-server metrics endpoint.
type Stats struct {
	// Shard is the shard this node replicates.
	Shard uint32 `json:"shard"`
	// SubmittedCmds counts commands handed to the replica.
	SubmittedCmds uint64 `json:"submitted_cmds"`
	// SubmittedOps counts client operations inside those commands.
	SubmittedOps uint64 `json:"submitted_ops"`
	// CompletedReqs counts client requests answered with results.
	CompletedReqs uint64 `json:"completed_reqs"`
	// AppliedCmds counts commands applied to the state machine.
	AppliedCmds uint64 `json:"applied_cmds"`
	// CrossSubmitted counts cross-shard commands submitted at this node.
	CrossSubmitted uint64 `json:"cross_submitted"`
	// Watches counts cross-shard watch registrations served.
	Watches uint64 `json:"watches"`
	// BatchFlushes counts submit batches flushed.
	BatchFlushes uint64 `json:"batch_flushes"`
	// BatchedOps counts client operations that rode those batches; the
	// mean batch size is BatchedOps/BatchFlushes.
	BatchedOps uint64 `json:"batched_ops"`
	// ExecQueue is the executor delivery queue depth at snapshot time.
	ExecQueue int `json:"exec_queue"`
	// Pending is the number of commands awaiting execution with live
	// client waiters.
	Pending int `json:"pending"`
	// LiveCmds is the number of commands the replica holds protocol state
	// for: those in flight plus those executed here that some replica of
	// the shard has not executed yet.
	LiveCmds int `json:"live_cmds"`
	// GCLagTS is how far, in logical timestamps, this replica's executed
	// watermark is ahead of the lowest one in its shard — what holds
	// LiveCmds up when it grows — and GCLagRank the shard-local rank
	// reporting that lowest watermark (a rank never heard from counts as
	// watermark zero).
	GCLagTS   uint64 `json:"gc_lag_ts"`
	GCLagRank uint32 `json:"gc_lag_rank"`
	// RecoveredCmds counts the recoveries this replica started as shard
	// leader: a command of a silent coordinator, or one pending past the
	// recovery timeout. It stays at 0 in a healthy cluster; growth without
	// a fault is a storm of false suspicions.
	RecoveredCmds uint64 `json:"recovered_cmds"`
}

// Stats snapshots the node's serving counters.
func (n *Node) Stats() Stats {
	n.execMu.Lock()
	execQ := len(n.execQ)
	n.execMu.Unlock()
	return Stats{
		Shard:          uint32(n.shard),
		SubmittedCmds:  n.stat.submittedCmds.Load(),
		SubmittedOps:   n.stat.submittedOps.Load(),
		CompletedReqs:  n.stat.completedReqs.Load(),
		AppliedCmds:    n.stat.appliedCmds.Load(),
		CrossSubmitted: n.stat.crossSubmitted.Load(),
		Watches:        n.stat.watches.Load(),
		BatchFlushes:   n.stat.batchFlushes.Load(),
		BatchedOps:     n.stat.batchedOps.Load(),
		ExecQueue:      execQ,
		Pending:        n.pendingCmds(),
		LiveCmds:       int(n.stat.liveCmds.Load()),
		GCLagTS:        n.stat.gcLagTS.Load(),
		GCLagRank:      n.stat.gcLagRank.Load(),
		RecoveredCmds:  n.stat.recoveredCmds.Load(),
	}
}
