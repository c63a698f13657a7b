package cluster

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"time"

	"tempo/internal/ids"
	"tempo/internal/membership"
)

// Dynamic membership at the runtime layer. A Node (or Group) given a
// membership.View via SetMembership resolves peer addresses through
// the view's current epoch instead of the static construction-time
// map, drops traffic from and to fenced slots (Dead/Left members,
// whose process ids may already be serving under a successor
// incarnation), and answers the configuration wire protocol
// (membership.ConfigMagic, auto-detected on the shared listen port
// like every other protocol). The epoch-change operations themselves
// — join, drain, replace — are orchestrated one level up by
// internal/psmr; this file provides their mechanisms: config
// fetch/push serving, the frontier query, the join floor, the
// pre-serve state bootstrap, and Drain.

// SetMembership installs a live configuration view. Call before
// Start; nodes without one run the static address map forever. All
// nodes of one process (every shard a psmr group hosts) and the group
// itself share a single view.
func (n *Node) SetMembership(v *membership.View) { n.view = v }

// Epoch returns the current configuration epoch (0 for a statically
// wired node).
func (n *Node) Epoch() uint64 {
	if n.view == nil {
		return 0
	}
	return n.view.Epoch()
}

// peerAddrs is the current address map (the view's epoch or the
// static one); the state-sync and config fan-out paths iterate it.
func (n *Node) peerAddrs() map[ids.ProcessID]string {
	if n.view != nil {
		return n.view.State().Addrs
	}
	return n.addrs
}

// fenced reports whether a peer's slot is Dead or Left: its traffic
// must drop in both directions, because the slot's process id may
// already be serving under a successor incarnation whose state the
// stale instance never saw.
func (n *Node) fenced(pid ids.ProcessID) bool {
	return n.view != nil && n.view.State().Fenced(pid)
}

// installPushed adopts a pushed config if newer, logging epoch
// transitions and rejections.
func installPushed(v *membership.View, cfg *membership.Config, who string) {
	installed, err := v.Install(cfg)
	if err != nil {
		log.Printf("cluster: %s rejected config epoch %d: %v", who, cfg.Epoch, err)
		return
	}
	if installed {
		log.Printf("cluster: %s installed config epoch %d", who, cfg.Epoch)
	}
}

// Frontier returns the highest logical-clock value and command-
// sequence number this node's replica has observed from pid — the
// successor-safety query of the drain-less replace flow.
func (n *Node) Frontier(pid ids.ProcessID) (clock, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rep.ObservedFrom(pid)
}

// SetJoinFloor installs the successor-safety floors for a replica
// taking over a slot: the max of the live shard peers' Frontier
// answers plus membership.FrontierMargin. Call before Start; the
// floors are applied (via the engine's max-in proto.Joiner.JoinFloor)
// after durable recovery and before the first protocol step, so
// reservations and floors compose.
func (n *Node) SetJoinFloor(clock, seq uint64) {
	n.joinClock, n.joinSeq = clock, seq
}

// applyJoinFloor raises the replica's clock and id floors; StartHosted
// calls it before the node goes ready.
func (n *Node) applyJoinFloor() {
	if n.joinClock == 0 && n.joinSeq == 0 {
		return
	}
	n.mu.Lock()
	n.rep.JoinFloor(n.joinClock, n.joinSeq)
	if n.joinSeq > n.lastSeq {
		n.lastSeq = n.joinSeq
	}
	// A durable joiner must not serve before the floor is covered by a
	// durable reservation (the floor jumped past the recovery-time
	// chunk); maybeReserveLocked takes the blocking path in that case.
	n.maybeReserveLocked()
	n.mu.Unlock()
}

// BootstrapFromPeers runs one state-catch-up round against the
// replica's shard peers before the node starts serving: the join
// flow's snapshot bootstrap. It reuses the durable runtime's sync
// protocol but needs no data directory. Call after
// SetMembership/SetSyncPeers and before Start (durable nodes run the same
// round inside recovery anyway and need no separate call).
func (n *Node) BootstrapFromPeers() {
	n.syncFromPeers()
}

// Drain moves the node to draining — dynamic membership's graceful
// leave. New client submissions are rejected with ErrCodeDraining
// (sessions fail over to serving replicas and refresh their
// configuration); commands already accepted finish, and once the
// pipeline empties the durable state is rotated into one
// self-contained snapshot, so the slot's next incarnation (or an
// operator archiving the directory) starts from a clean generation.
// An error reports an unflushed pipeline at timeout; the caller may
// still proceed to remove the node — the shard's surviving quorums
// recover whatever was in flight, as with a crash.
func (n *Node) Drain(timeout time.Duration) error {
	n.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for {
		if n.pendingCmds() == 0 {
			n.execMu.Lock()
			idle := len(n.execQ) == 0
			n.execMu.Unlock()
			if idle {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: node %d drain timed out with %d commands pending", n.id, n.pendingCmds())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n.dur != nil {
		if err := n.dur.rotate(); err != nil {
			return fmt.Errorf("cluster: node %d drain-time snapshot: %w", n.id, err)
		}
	}
	return nil
}

// Draining reports whether Drain has begun.
func (n *Node) Draining() bool { return n.draining.Load() }

// LinkState is one peer link's health snapshot, exposed per peer by
// the metrics endpoint alongside the membership epoch.
type LinkState struct {
	// LastRecvUnixMS is when traffic from the peer last arrived at this
	// node (Unix milliseconds; 0 means never).
	LastRecvUnixMS int64 `json:"last_recv_unix_ms"`
	// QueueDepth is the depth of the outbound queue toward the peer's
	// address on a standalone node's links (peers sharing an address
	// share the queue; group-hosted nodes report 0, see Group.Links).
	QueueDepth int `json:"queue_depth"`
}

// noteRecv stamps a peer's inbound-liveness clock — once per
// delivered frame, not per message.
func (n *Node) noteRecv(from ids.ProcessID) {
	now := time.Now().UnixMilli()
	n.linkMu.Lock()
	n.lastRecv[from] = now
	n.linkMu.Unlock()
}

// Links snapshots per-peer link state (inbound liveness, outbound
// queue depth).
func (n *Node) Links() map[ids.ProcessID]LinkState {
	out := make(map[ids.ProcessID]LinkState)
	n.linkMu.Lock()
	for pid, t := range n.lastRecv {
		out[pid] = LinkState{LastRecvUnixMS: t}
	}
	n.linkMu.Unlock()
	if n.own != nil {
		depth := n.own.Links()
		for pid, addr := range n.peerAddrs() {
			if d, ok := depth[addr]; ok {
				ls := out[pid]
				ls.QueueDepth = d
				out[pid] = ls
			}
		}
	}
	return out
}

// --- Group side ---

// SetMembership installs the configuration view shared by the group
// and its hosted nodes. Call before StartListener (and SetMembership
// on each hosted node with the same view).
func (g *Group) SetMembership(v *membership.View) { g.view = v }

// Epoch returns the group's current configuration epoch (0 when
// statically wired).
func (g *Group) Epoch() uint64 {
	if g.view == nil {
		return 0
	}
	return g.view.Epoch()
}

// addrOf resolves a destination's current site address through the
// view's epoch (falling back to the static map).
func (g *Group) addrOf(to ids.ProcessID) string {
	if g.view != nil {
		return g.view.State().Addrs[to]
	}
	return g.addrs[to]
}

// fenced mirrors Node.fenced for group links.
func (g *Group) fenced(pid ids.ProcessID) bool {
	return g.view != nil && g.view.State().Fenced(pid)
}

// shardOfPid resolves a process's shard through the view (falling
// back to the static map) — sync and frontier requests route by it.
func (g *Group) shardOfPid(pid ids.ProcessID) (ids.ShardID, bool) {
	if g.view != nil {
		s, ok := g.view.State().ShardOf[pid]
		return s, ok
	}
	s, ok := g.shardOf[pid]
	return s, ok
}

// serveMembership answers one configuration-protocol request on the
// shared listener (see the wire protocol note in internal/membership);
// frontier queries route to the hosted node replicating the subject's
// shard. It is served even before the group is ready: joiners fetch
// configs and frontier answers from peers regardless of their recovery
// phase, exactly like the state-sync protocol.
func (g *Group) serveMembership(conn net.Conn, br *bufio.Reader) {
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	req, err := membership.ReadRequest(br)
	if err != nil {
		return
	}
	switch req.Kind {
	case membership.KindFetch, membership.KindPush:
		if g.view == nil {
			return
		}
		if req.Kind == membership.KindPush {
			installPushed(g.view, req.Cfg, "group "+g.Addr())
		}
		membership.WriteConfigReply(conn, g.view.State().Config)
	case membership.KindFrontier:
		var n *Node
		if shard, ok := g.shardOfPid(req.Subject); ok {
			n = g.byShard[shard]
		}
		if n == nil {
			membership.WriteFrontierReply(conn, false, 0, 0)
			return
		}
		clock, seq := n.Frontier(req.Subject)
		membership.WriteFrontierReply(conn, true, clock, seq)
	}
}

// Links reports the group's outbound queue depth per remote address.
func (g *Group) Links() map[string]int {
	out := make(map[string]int)
	g.outMu.Lock()
	for addr, ch := range g.out {
		out[addr] = len(ch)
	}
	g.outMu.Unlock()
	return out
}
