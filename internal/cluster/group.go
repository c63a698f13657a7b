package cluster

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/membership"
	"tempo/internal/proto"
)

const (
	// maxWriteBatch bounds how many queued messages one frame coalesces.
	maxWriteBatch = 512
	// dialPeerTimeout bounds peer-link dials.
	dialPeerTimeout = 2 * time.Second
	// magicTimeout bounds how long an accepted connection may take to
	// announce its dialect; every dialer writes the 4-byte magic right
	// after connecting, so a connection still silent by then is dropped
	// instead of pinning a goroutine and a socket forever.
	magicTimeout = 2 * time.Second
	// linkQueueLen is the queue depth one hosted node gets: its in-process
	// queue holds that many messages, and the queue of a site link, which
	// multiplexes every hosted node's traffic, that many per hosted node.
	// A queue only has to absorb what piles up while its writer is in a
	// syscall — under the benchmark's saturating workloads the deepest
	// queue to a live peer reached 94 messages — and beyond it messages
	// drop, which the protocols' retry machinery covers and which is all
	// that can happen to traffic for a dead peer anyway. Deeper is not
	// free: the queues are allocated on the boot and first-send paths,
	// the latter under the protocol lock.
	linkQueueLen = 2048
)

// GroupMagic prefixes peer links, the one transport between processes:
// each frame is a sequence of (from, to, message) records, so one
// connection multiplexes every process pair between two addresses.
var GroupMagic = [4]byte{0xFF, 'T', 'G', 1}

// groupMsg is one queued protocol message between two processes.
type groupMsg struct {
	from, to ids.ProcessID
	msg      proto.Message
}

// Group hosts one Node per locally replicated shard behind a single
// listener and a single set of peer links — the deployment unit of
// partial replication: one tempo-server process per site, serving every
// shard that site replicates. A standalone Node is the degenerate case,
// a private Group of one (Node.StartListener).
//
// Outbound protocol traffic from every hosted node funnels through the
// group (each node's Transport): messages to co-hosted shards take an
// in-process queue, messages to remote sites share one link per remote
// address, coalesced into batched frames. Group frames carry (from, to)
// per message, so one connection multiplexes every shard pair between
// two sites — including the cross-shard stability signals (MStable) and
// commit fan-out that make multi-shard commands execute.
//
// Inbound, the shared listener demultiplexes by magic prefix: group
// peer frames to the addressed node, client connections to a router
// that picks the hosted node by the request's shard, state-sync
// requests to the local replica of the requester's shard, and
// configuration requests to the membership view.
//
// Create with NewGroup, add nodes, then StartListener + node StartHosted
// calls + SetReady (the psmr package and Node.StartListener run this
// sequence).
type Group struct {
	addrs   map[ids.ProcessID]string      // every process -> its site's address
	shardOf map[ids.ProcessID]ids.ShardID // every process -> its shard

	nodes   map[ids.ProcessID]*Node
	byShard map[ids.ShardID]*Node
	list    []*Node

	ln         net.Listener
	done       chan struct{}
	closed     sync.Once
	ready      atomic.Bool
	frameLimit uint64

	//tempo:guard
	outMu  sync.Mutex
	out    map[string]chan groupMsg        // per remote address
	localQ map[ids.ProcessID]chan groupMsg // per hosted node

	// conns tracks live client connections so Close can fail their read
	// loops instead of stranding clients. peerConns tracks inbound peer
	// connections for the same reason: a closed group must stop consuming
	// protocol traffic, or peers would keep talking to a zombie instead
	// of redialing its successor (an in-process restart; a killed
	// process loses its sockets anyway).
	ccMu      sync.Mutex
	conns     map[*clientConn]struct{}
	peerConns map[net.Conn]struct{}

	// shaper, when set, interposes WAN emulation and runtime partitions
	// on every outgoing inter-process message; see SetShaper.
	shaper *Shaper

	// view, when set (SetMembership), supplies epoch-versioned
	// addressing and fencing for the shared links, and the config
	// protocol is served on the shared listener; see membership.go.
	view *membership.View
}

// NewGroup creates a group for the given global address and shard maps
// (every process of the topology, not just the local ones).
func NewGroup(addrs map[ids.ProcessID]string, shardOf map[ids.ProcessID]ids.ShardID) *Group {
	return &Group{
		addrs:      addrs,
		shardOf:    shardOf,
		nodes:      make(map[ids.ProcessID]*Node),
		byShard:    make(map[ids.ShardID]*Node),
		list:       nil,
		done:       make(chan struct{}),
		frameLimit: defaultMaxFrameBytes,
		out:        make(map[string]chan groupMsg),
		localQ:     make(map[ids.ProcessID]chan groupMsg),
		conns:      make(map[*clientConn]struct{}),
		peerConns:  make(map[net.Conn]struct{}),
	}
}

// AddNode registers a hosted node (one per locally replicated shard)
// and installs the group as its transport. Call before StartListener.
func (g *Group) AddNode(n *Node) {
	n.SetTransport(g)
	g.nodes[n.id] = n
	g.byShard[n.shard] = n
	g.list = append(g.list, n)
	q := make(chan groupMsg, linkQueueLen)
	g.localQ[n.id] = q
	go g.localLoop(n, q)
}

// StartListener starts accepting on the shared listener. Only the
// state-sync and peer protocols are served until SetReady — clients
// fail over to live sites while this one recovers, but co-recovering
// sites can still exchange snapshots and protocol traffic flows to
// nodes as each finishes recovery.
func (g *Group) StartListener(ln net.Listener) {
	g.ln = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go g.serveConn(conn)
		}
	}()
}

// Addr returns the shared listen address.
func (g *Group) Addr() string { return g.ln.Addr().String() }

// SetReady opens the group for client traffic; call once every hosted
// node finished StartHosted.
func (g *Group) SetReady() { g.ready.Store(true) }

// Close tears the shared runtime down: the listener, every tracked
// connection, and the outbound links. Hosted nodes are closed by the
// caller first, so their shutdown replies are already queued on the
// client connections when the sockets go away (best effort).
func (g *Group) Close() {
	g.closed.Do(func() {
		close(g.done)
		if g.ln != nil {
			g.ln.Close()
		}
		g.ccMu.Lock()
		conns := make([]*clientConn, 0, len(g.conns))
		for cc := range g.conns {
			conns = append(conns, cc)
		}
		peers := make([]net.Conn, 0, len(g.peerConns))
		for pc := range g.peerConns {
			peers = append(peers, pc)
		}
		g.ccMu.Unlock()
		for _, cc := range conns {
			cc.conn.Close()
		}
		for _, pc := range peers {
			pc.Close()
		}
	})
}

// SetShaper interposes sh on the group's outgoing messages — both the
// inter-site links and the in-process queues between co-hosted shards,
// so a site-level partition severs a process from *every* peer, not
// just remote ones. Call before StartListener. The group does not own
// sh and never closes it.
func (g *Group) SetShaper(sh *Shaper) { g.shaper = sh }

// Send implements Transport: messages pass the shaper when one is
// installed (which may delay, drop, or partition them), then forward to
// the in-process queue or the shared per-address link.
func (g *Group) Send(from, to ids.ProcessID, msg proto.Message) {
	if g.shaper != nil {
		g.shaper.Send(from, to, msg, g.forward)
		return
	}
	g.forward(from, to, msg)
}

// forward implements the unshaped send path: co-hosted destinations
// take the in-process queue, remote ones the shared per-address link.
// Never blocks; full queues drop (the protocol's liveness machinery
// retries). Safe from shaper link goroutines.
func (g *Group) forward(from, to ids.ProcessID, msg proto.Message) {
	if g.fenced(to) {
		return
	}
	if q, ok := g.localQ[to]; ok {
		select {
		case q <- groupMsg{from, to, msg}:
		default:
		}
		return
	}
	addr := g.addrOf(to)
	if addr == "" {
		return
	}
	g.outMu.Lock()
	ch, ok := g.out[addr]
	if !ok {
		ch = make(chan groupMsg, linkQueueLen*len(g.list))
		g.out[addr] = ch
		go g.writer(addr, ch)
	}
	g.outMu.Unlock()
	select {
	case ch <- groupMsg{from, to, msg}:
	default:
	}
}

// localLoop drains one hosted node's in-process inbound queue,
// delivering runs of same-origin messages in one batch. Delivery waits
// for the node to finish recovery (ready), as for frames off the wire;
// pre-ready messages drop.
func (g *Group) localLoop(n *Node, q chan groupMsg) {
	var batch []proto.Message
	for {
		var m groupMsg
		select {
		case <-g.done:
			return
		case m = <-q:
		}
		from := m.from
		batch = append(batch[:0], m.msg)
	coalesce:
		for len(batch) < maxWriteBatch {
			select {
			case mm := <-q:
				if mm.from != from {
					if n.ready.Load() {
						n.Deliver(from, batch)
					}
					from = mm.from
					batch = batch[:0]
				}
				batch = append(batch, mm.msg)
			default:
				break coalesce
			}
		}
		if n.ready.Load() {
			n.Deliver(from, batch)
		}
		clear(batch) // drop message refs until the next wake-up
	}
}

// writer drains one remote address's outbound queue over a (re)dialed
// connection, coalescing everything queued at wake-up into one framed,
// buffered write: a protocol step or tick that fans out many messages to
// the same site costs one syscall, not one encode+write per message. A
// failed dial or write drops the batch — the protocol's liveness
// machinery retries — and the next batch redials. An epoch that rebinds
// a peer's slot to a new address (node replacement) redirects traffic
// without a restart, because forward resolves the address per message.
//
// A connection the peer has closed is dropped as soon as the peer's
// close arrives, not at the first write after it: the kernel accepts
// that write into the dead connection and the batch vanishes, so a peer
// that restarts between two batches would otherwise lose the first one
// sent after — typically the reply to its own first request, which
// nothing resends.
func (g *Group) writer(addr string, ch chan groupMsg) {
	var conn net.Conn
	var hungUp <-chan struct{} // nil, so never ready, while conn is nil
	var bw *bufio.Writer
	var head, body []byte
	batch := make([]groupMsg, 0, maxWriteBatch)
	drop := func() {
		conn.Close()
		conn, bw, hungUp = nil, nil, nil
	}
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var m groupMsg
		select {
		case <-g.done:
			return
		case <-hungUp:
			drop()
			continue
		case m = <-ch:
		}
		batch = append(batch[:0], m)
	coalesce:
		for len(batch) < maxWriteBatch {
			select {
			case mm := <-ch:
				batch = append(batch, mm)
			default:
				break coalesce
			}
		}
		select {
		case <-hungUp: // the close raced with the batch
			drop()
		default:
		}
		for attempt := 0; attempt < 2; attempt++ {
			if conn == nil {
				c, err := dialGroupPeer(addr)
				if err != nil {
					break // drop; liveness machinery retries
				}
				conn, bw, hungUp = c, bufio.NewWriter(c), watchHangUp(c)
			}
			err := g.writeGroupBatch(bw, batch, &head, &body)
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				drop()
				continue
			}
			break
		}
	}
}

// watchHangUp returns a channel closed once the peer closes c. A group
// link carries frames one way, so the read returns only at the peer's
// close (or once c is closed locally, which ends the goroutine).
func watchHangUp(c net.Conn) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		var b [1]byte
		c.Read(b[:])
	}()
	return ch
}

func dialGroupPeer(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, dialPeerTimeout)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write(GroupMagic[:]); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// writeGroupBatch encodes one coalesced batch as group frames, each a
// sequence of (uvarint from || uvarint to || message) records, split so
// no frame body exceeds the frame limit. Oversized single messages drop,
// like everywhere else on the peer path.
func (g *Group) writeGroupBatch(bw *bufio.Writer, batch []groupMsg, head, body *[]byte) error {
	writeFrame := func(b []byte) error {
		h := proto.AppendUvarint((*head)[:0], uint64(len(b)))
		*head = h
		if _, err := bw.Write(h); err != nil {
			return err
		}
		_, err := bw.Write(b)
		return err
	}
	b := (*body)[:0]
	var err error
	for _, m := range batch {
		mark := len(b)
		b = proto.AppendUvarint(b, uint64(m.from))
		b = proto.AppendUvarint(b, uint64(m.to))
		if b, err = proto.AppendMessage(b, m.msg); err != nil {
			*body = b
			return err
		}
		if uint64(len(b)) > g.frameLimit && mark > 0 {
			if err := writeFrame(b[:mark]); err != nil {
				*body = b
				return err
			}
			moved := copy(b, b[mark:])
			b = b[:moved]
		}
		if uint64(len(b)) > g.frameLimit {
			b = b[:0] // oversized single message: drop
		}
	}
	*body = b
	if len(b) > 0 {
		return writeFrame(b)
	}
	return nil
}

// serveConn demultiplexes one inbound connection by its magic prefix,
// one of exactly four dialects; anything else — an unknown magic, or no
// magic within magicTimeout — is closed.
func (g *Group) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var magic [4]byte
	conn.SetReadDeadline(time.Now().Add(magicTimeout))
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch magic {
	case GroupMagic:
		if !g.trackPeerConn(conn) {
			return
		}
		defer g.untrackPeerConn(conn)
		g.servePeer(br)
	case ClientMagic2:
		if !g.ready.Load() {
			return // mid-recovery: sessions fail over to live sites
		}
		serveClientStream(g, conn, br)
	case SyncMagic:
		g.serveSync(conn, br)
	case membership.ConfigMagic:
		g.serveMembership(conn, br)
	}
}

// servePeer streams group frames, delivering runs of same-(from, to)
// messages to the addressed node in one batch. Frames for nodes still
// recovering (or not hosted here) drop; peers resend once it serves.
func (g *Group) servePeer(br *bufio.Reader) {
	var buf []byte
	var msgs []proto.Message
	var curFrom, curTo ids.ProcessID
	flush := func() {
		if len(msgs) == 0 {
			return
		}
		if n := g.nodes[curTo]; n != nil && n.ready.Load() && !g.fenced(curFrom) {
			n.Deliver(curFrom, msgs)
		}
		clear(msgs)
		msgs = msgs[:0]
	}
	for {
		b, err := ReadFrame(br, g.frameLimit, &buf)
		if err != nil {
			return
		}
		for len(b) > 0 {
			var from, to uint64
			if from, b, err = proto.ReadUvarint(b); err != nil {
				return
			}
			if to, b, err = proto.ReadUvarint(b); err != nil {
				return
			}
			msg, rest, err := proto.DecodeMessage(b)
			if err != nil {
				return
			}
			b = rest
			if ids.ProcessID(from) != curFrom || ids.ProcessID(to) != curTo {
				flush()
				curFrom, curTo = ids.ProcessID(from), ids.ProcessID(to)
			}
			msgs = append(msgs, msg)
		}
		flush()
	}
}

// serveSync routes a state-catch-up request to the local replica of the
// requester's shard. The requester must be a known process: an unknown
// (or zero) pid would map to the zero shard and be handed the wrong
// state machine, so its request is dropped.
func (g *Group) serveSync(conn net.Conn, br *bufio.Reader) {
	req, ok := readSyncRequest(conn, br, g.frameLimit)
	if !ok {
		return
	}
	if shard, ok := g.shardOfPid(req.From); ok {
		if n := g.byShard[shard]; n != nil {
			n.answerSync(conn, req)
		}
	}
}

func (g *Group) trackPeerConn(conn net.Conn) bool {
	g.ccMu.Lock()
	defer g.ccMu.Unlock()
	select {
	case <-g.done:
		return false
	default:
	}
	g.peerConns[conn] = struct{}{}
	return true
}

func (g *Group) untrackPeerConn(conn net.Conn) {
	g.ccMu.Lock()
	delete(g.peerConns, conn)
	g.ccMu.Unlock()
}

// routeSubmit picks the hosted node serving a plain submission: ops of
// a shard no hosted node replicates are rejected as ErrCodeWrongShard,
// ops spanning shards as ErrCodeCrossShard — a merged result needs
// submit-at/watch.
func (g *Group) routeSubmit(ops []command.Op) (*Node, command.WireError) {
	s, ok := g.list[0].rep.OpsShard(ops)
	if !ok {
		return nil, command.WireError{Code: command.ErrCodeCrossShard,
			Msg: "operations span shards; use cross-shard submission"}
	}
	if n := g.byShard[s]; n != nil {
		return n, command.WireError{}
	}
	return nil, wrongShardErr(s)
}

// trackClientConn registers a live client connection so Close can tear
// it down; false means the group is shutting down and the caller must
// drop the connection. The done check shares ccMu with Close's sweep,
// so either the registration is visible to Close or the shutdown is
// visible here.
func (g *Group) trackClientConn(cc *clientConn) bool {
	g.ccMu.Lock()
	defer g.ccMu.Unlock()
	select {
	case <-g.done:
		return false
	default:
	}
	g.conns[cc] = struct{}{}
	return true
}

func (g *Group) untrackClientConn(cc *clientConn) {
	g.ccMu.Lock()
	delete(g.conns, cc)
	g.ccMu.Unlock()
}
