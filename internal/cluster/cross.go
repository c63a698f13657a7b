package cluster

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
)

// Client serving, single- and cross-shard.
//
// A multi-shard command is ordered independently by every shard it
// accesses and executes, at every replica of each accessed shard, at the
// maximum timestamp across those shards (Algorithm 3 of the paper); each
// shard's execution produces only that shard's result segment. The
// client protocol makes the full result reachable from the client with
// no extra round trip on the submission path:
//
//   - The session pre-mints a block of command ids from any replica
//     (ReqMint — the ids come out of the replica's ordinary Dot
//     sequence, covered by its durable id reservation).
//   - A cross-shard command is submitted under one such id to a replica
//     of its first accessed shard (ReqSubmitAt, the "gateway"), while
//     ReqWatch registrations carrying the same id go concurrently to
//     one replica of every other accessed shard.
//   - Each of those replicas completes its request with its own shard's
//     segment when the command executes locally; the session merges the
//     segments back into op order.
//
// A watch can lose the race with local execution (the command executed
// before the watch frame arrived). Executed cross-shard commands with no
// local waiter at a watched shard (any but the gateway's) therefore park
// their result values for parkTTL; a late watch is answered straight
// from the parked buffer. Single-shard commands never park — their
// results always have a registered waiter or nobody to answer.

// sweepConn claims every waiter still pending for a gone connection
// (there is no one left to reply to) and drops fully-claimed commands.
func (n *Node) sweepConn(cc *clientConn) {
	n.waitMu.Lock()
	for id, pc := range n.waiters {
		for _, w := range pc.members {
			if w.cc == cc {
				w.claimed = true // no one left to reply to
			}
		}
		if pc.allClaimedLocked() {
			delete(n.waiters, id)
		}
	}
	n.syncPendingLocked()
	n.waitMu.Unlock()
}

// serveClientStream runs one client connection against a group:
// requests are submitted with id-tagged waiters and completed
// asynchronously, so any number of requests from one connection are in
// flight at once, across every node the group hosts.
func serveClientStream(g *Group, conn net.Conn, br *bufio.Reader) {
	cc := &clientConn{
		g:    g,
		conn: conn,
		dead: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
	if !g.trackClientConn(cc) {
		conn.Close()
		return
	}
	go cc.writeLoop()
	defer cc.abandon()
	var buf []byte
	for {
		body, err := ReadFrame(br, g.frameLimit, &buf)
		if err != nil || !serveRequest(g, cc, body) {
			return
		}
	}
}

// serveRequest dispatches one request frame. It reports false on a
// protocol error (the connection must be dropped).
func serveRequest(g *Group, cc *clientConn, body []byte) bool {
	req, err := DecodeClientRequest2(body)
	if err != nil {
		return false
	}
	badReq := func(msg string) {
		cc.reply(req.ReqID, command.WireError{Code: command.ErrCodeBadRequest, Msg: msg}, nil)
	}
	newWaiter := func() *waiter {
		w := &waiter{cc: cc, reqID: req.ReqID}
		if req.Deadline > 0 {
			w.deadline = time.Now().Add(req.Deadline)
		}
		return w
	}
	switch req.Kind {
	case ReqSubmit:
		if len(req.Ops) == 0 {
			badReq("empty command")
			return true
		}
		n, werr := g.routeSubmit(req.Ops)
		if werr.Code != command.ErrCodeNone {
			cc.reply(req.ReqID, werr, nil)
			return true
		}
		n.submit(newWaiter(), req.Ops)
	case ReqMint:
		if req.Count == 0 || req.Count > MaxMintBlock {
			badReq("mint count out of range")
			return true
		}
		// Id blocks come from the first hosted node's Dot sequence.
		first := g.list[0].mintBlock(int(req.Count))
		cc.reply(req.ReqID, command.WireError{}, AppendMintReply(first))
	case ReqSubmitAt:
		if len(req.Ops) == 0 || req.ID.IsZero() {
			badReq("cross-shard submission needs ops and an id")
			return true
		}
		n := g.byShard[req.Shard]
		if n == nil {
			cc.reply(req.ReqID, wrongShardErr(req.Shard), nil)
			return true
		}
		n.submitCmdAt(req.ID, newWaiter(), req.Ops)
	case ReqWatch:
		if req.ID.IsZero() {
			badReq("watch needs an id")
			return true
		}
		n := g.byShard[req.Shard]
		if n == nil {
			cc.reply(req.ReqID, wrongShardErr(req.Shard), nil)
			return true
		}
		n.watch(newWaiter(), req.ID)
	default:
		return false
	}
	return true
}

func wrongShardErr(s ids.ShardID) command.WireError {
	return command.WireError{Code: command.ErrCodeWrongShard,
		Msg: fmt.Sprintf("shard %d is not replicated by this process", s)}
}

// mintBlock reserves a contiguous block of count command ids from the
// replica's ordinary Dot sequence and returns the first. The block is
// covered by the durable id reservation before the reply, so a
// crash-restart of this replica never re-mints any of the ids; the
// session owning the block submits cross-shard commands under them.
func (n *Node) mintBlock(count int) ids.Dot {
	n.mu.Lock()
	defer n.mu.Unlock()
	first := n.rep.NextID()
	for i := 1; i < count; i++ {
		n.rep.NextID()
	}
	if hi := first.Seq + uint64(count) - 1; hi > n.lastSeq {
		n.lastSeq = hi
	}
	n.maybeReserveLocked()
	return first
}

// submitCmdAt registers w and submits ops as one command under a
// client-held id (minted via mintBlock, possibly at another replica).
// Cross-shard commands always take this direct path: they are never
// batched — coalescing would change the command's shard set — and
// their waiter owns the whole local result segment. A duplicated
// submission for an already-submitted id (a client retry) only
// registers its waiter; the command is handed to the replica once.
func (n *Node) submitCmdAt(id ids.Dot, w *waiter, ops []command.Op) {
	w.nvals = -1
	n.mu.Lock()
	n.waitMu.Lock()
	select {
	case <-n.done:
		claimed := !w.claimed
		w.claimed = true
		n.waitMu.Unlock()
		n.mu.Unlock()
		if claimed {
			w.fail(command.WireError{Code: command.ErrCodeShutdown, Msg: "node shutting down"})
		}
		return
	default:
	}
	pc := n.waiters[id]
	if pc != nil {
		// A watch raced ahead of the submission, or a client
		// resubmitted: the command is one, the waiters are many.
		pc.members = append(pc.members, w)
	} else {
		pc = &pendingCmd{members: []*waiter{w}}
		n.waiters[id] = pc
	}
	resubmit := pc.submitted
	pc.submitted = true
	n.syncPendingLocked()
	n.waitMu.Unlock()
	if resubmit {
		n.mu.Unlock()
		return
	}
	n.stat.crossSubmitted.Add(1)
	n.stat.submittedCmds.Add(1)
	n.stat.submittedOps.Add(uint64(len(ops)))
	acts := n.rep.Submit(command.New(id, ops...))
	n.afterStepLocked(acts)
	n.mu.Unlock()
}

// watch registers interest in a command id: w completes with this
// shard's result segment when the command executes locally. A command
// that already executed is answered from the parked-results buffer.
func (n *Node) watch(w *waiter, id ids.Dot) {
	w.nvals = -1
	n.stat.watches.Add(1)
	n.waitMu.Lock()
	select {
	case <-n.done:
		w.claimed = true
		n.waitMu.Unlock()
		w.fail(command.WireError{Code: command.ErrCodeShutdown, Msg: "node shutting down"})
		return
	default:
	}
	if pr, ok := n.parked[id]; ok {
		delete(n.parked, id)
		w.claimed = true
		n.waitMu.Unlock()
		n.stat.completedReqs.Add(1)
		w.complete(pr.values)
		return
	}
	pc := n.waiters[id]
	if pc == nil {
		pc = &pendingCmd{}
		n.waiters[id] = pc
	}
	pc.members = append(pc.members, w)
	n.syncPendingLocked()
	n.waitMu.Unlock()
}

// Parked results: executed cross-shard commands with no local waiter
// keep their result values for parkTTL, so a watch that lost the race
// with execution is still answered. Only the replicas of the shards a
// client watches park: the lowest accessed shard is the gateway's, whose
// result rides the submission's own waiter. maxParked bounds the buffer
// — every replica of a watched shard executes every cross-shard command,
// but only the client-chosen one carries a watch, so the others park
// everything they execute until the TTL reclaims it. A watch arriving
// after its entry was reclaimed (TTL, or cap eviction under extreme
// load) waits until its deadline and surfaces as a timeout — the same
// executed-but-unobserved ambiguity any timed-out command has; a
// deadline-less watch for a command that is never submitted locally is
// reclaimed when its connection goes away.
const (
	parkTTL   = 5 * time.Second
	maxParked = 1 << 16
)

type parkedResult struct {
	values  [][]byte
	expires time.Time
}

// completeOrPark completes every waiter of an executed cross-shard
// command, or parks the result when no one is waiting locally and a
// watch may still come.
func (n *Node) completeOrPark(cmd *command.Command, values [][]byte) {
	id := cmd.ID
	n.waitMu.Lock()
	if pc := n.waiters[id]; pc != nil {
		delete(n.waiters, id)
		n.syncPendingLocked()
		done := pc.claimAllLocked()
		n.waitMu.Unlock()
		n.stat.completedReqs.Add(uint64(len(done)))
		for _, w := range done {
			w.complete(w.segment(values))
		}
		return
	}
	if !n.watched(cmd.Ops) {
		n.waitMu.Unlock()
		return
	}
	if len(n.parked) >= maxParked {
		// Arbitrary eviction keeps the buffer bounded; the TTL sweep is
		// the primary reclaim.
		for k := range n.parked {
			delete(n.parked, k)
			break
		}
	}
	n.parked[id] = parkedResult{values: values, expires: time.Now().Add(parkTTL)}
	n.waitMu.Unlock()
}

// watched reports whether a client may watch this replica's shard for a
// cross-shard command: whether the command accesses a shard below it.
// The client submits at a replica of the lowest accessed shard and
// watches only the others, and submitCmdAt never reads parked results.
func (n *Node) watched(ops []command.Op) bool {
	for i := range ops {
		if s, _ := n.rep.OpsShard(ops[i : i+1]); s < n.shard {
			return true
		}
	}
	return false
}

// sweepParked drops parked results whose TTL expired. The tick loop
// calls it about once a second.
func (n *Node) sweepParked(now time.Time) {
	n.waitMu.Lock()
	for id, pr := range n.parked {
		if now.After(pr.expires) {
			delete(n.parked, id)
		}
	}
	n.waitMu.Unlock()
}
