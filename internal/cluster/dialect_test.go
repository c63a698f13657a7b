package cluster_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/membership"
	"tempo/internal/proto"
	"tempo/internal/psmr"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// flatTopo builds a zero-RTT, f=1 topology of the given shape.
func flatTopo(t *testing.T, sites, shards int) *topology.Topology {
	t.Helper()
	names := make([]string, sites)
	rtt := make([][]time.Duration, sites)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		rtt[i] = make([]time.Duration, sites)
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: shards, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// closedWithin reports whether the far end closes conn before d passes:
// a read that ends in anything but a timeout (EOF, or a reset when the
// server dropped bytes it never read).
func closedWithin(conn net.Conn, d time.Duration) bool {
	conn.SetReadDeadline(time.Now().Add(d))
	_, err := conn.Read(make([]byte, 1))
	return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
}

// TestListenerDialects pins the listener's surface, on a standalone node
// and on a psmr group alike: exactly four connection magics are served,
// and everything else — the retired peer and client-v1 magics, a gob
// hello, garbage, a connection that never speaks — is closed within the
// magic deadline without leaving a serving goroutine behind.
func TestListenerDialects(t *testing.T) {
	topo := flatTopo(t, 3, 1)
	// Both listeners host process self; peer is a process they know of
	// that is never started.
	self, peer := topo.ProcessAt(0, 0), topo.ProcessAt(1, 0)
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	const dead = "127.0.0.1:1"
	type target struct {
		addr string
		node *cluster.Node // hosts process self behind addr
	}
	targets := make(map[string]target)

	ln := listen()
	n := cluster.NewNode(self, tempo.New(self, topo, tempo.Config{}),
		map[ids.ProcessID]string{self: ln.Addr().String(), peer: dead, topo.ProcessAt(2, 0): dead})
	if err := n.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	targets["standalone node"] = target{n.Addr(), n}

	ln = listen()
	g, err := psmr.StartListener(psmr.Config{
		Topo:      topo,
		Site:      0,
		SiteAddrs: map[ids.SiteID]string{0: ln.Addr().String(), 1: dead, 2: dead},
	}, ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	targets["psmr group"] = target{g.Addr(), g.Nodes()[0]}

	// closeBy is when a rejected connection must be gone: the listener's
	// 2s magic timeout plus scheduling slack.
	const closeBy = 3 * time.Second
	frame := func(magic [4]byte, body []byte) []byte {
		out := proto.AppendUvarint(magic[:], uint64(len(body)))
		return append(out, body...)
	}
	readFrame := func(t *testing.T, conn net.Conn) []byte {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(closeBy))
		var buf []byte
		body, err := cluster.ReadFrame(bufio.NewReader(conn), 1<<20, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	rejected := func(t *testing.T, _ *cluster.Node, conn net.Conn) {
		if !closedWithin(conn, closeBy) {
			t.Fatalf("connection still open after %v", closeBy)
		}
	}

	// A no-op protocol message from peer to self, as one peer-link record.
	record := proto.AppendUvarint(nil, uint64(peer))
	record = proto.AppendUvarint(record, uint64(self))
	if record, err = proto.AppendMessage(record, &tempo.MPromises{Rank: 2}); err != nil {
		t.Fatal(err)
	}
	// A state-sync request at the zero watermark, without its requester.
	syncReq := []byte{0, 0, 0}
	var scratch []byte

	cases := []struct {
		name    string
		opening []byte
		check   func(t *testing.T, n *cluster.Node, conn net.Conn)
	}{
		{"GroupMagic is served", frame(cluster.GroupMagic, record), func(t *testing.T, n *cluster.Node, conn net.Conn) {
			for deadline := time.Now().Add(closeBy); n.Links()[peer].LastRecvUnixMS == 0; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("peer frame never delivered to the hosted node")
				}
			}
			if closedWithin(conn, 50*time.Millisecond) {
				t.Fatal("peer link closed by the listener")
			}
		}},
		// A mint is answered locally, without a quorum.
		{"ClientMagic2 is served", cluster.AppendMintRequest(cluster.ClientMagic2[:], &scratch, 7, 4), func(t *testing.T, _ *cluster.Node, conn net.Conn) {
			reqID, werr, values, err := cluster.DecodeClientReply(readFrame(t, conn))
			if err != nil || reqID != 7 || werr.Code != 0 {
				t.Fatalf("mint reply = req %d, %+v, %v", reqID, werr, err)
			}
			if _, err := cluster.DecodeMintReply(values); err != nil {
				t.Fatal(err)
			}
		}},
		{"SyncMagic is served", frame(cluster.SyncMagic, proto.AppendUvarint(syncReq, uint64(peer))), func(t *testing.T, _ *cluster.Node, conn net.Conn) {
			if reply := readFrame(t, conn); !bytes.Equal(reply, []byte{0}) {
				t.Fatalf("sync reply = % x; want the up-to-date frame", reply)
			}
		}},
		{"SyncMagic without a requester is closed", frame(cluster.SyncMagic, syncReq), rejected},
		{"SyncMagic from an unknown process is closed", frame(cluster.SyncMagic, proto.AppendUvarint(syncReq, 99)), rejected},
		{"ConfigMagic is served", frame(membership.ConfigMagic, []byte{membership.KindFrontier, byte(peer)}), func(t *testing.T, _ *cluster.Node, conn net.Conn) {
			if reply := readFrame(t, conn); len(reply) == 0 || reply[0] != 1 {
				t.Fatalf("frontier reply = % x; want an ok answer", reply)
			}
		}},
		{"old peerMagic is closed", []byte{0xFF, 'T', 'P', 1, 2, 1, 14}, rejected},
		{"ClientMagic v1 is closed", []byte{0xFF, 'T', 'C', 1, 3, 1, 0, 0}, rejected},
		// encoding/gob's stream for the retired hello{From: 1} handshake.
		{"gob hello is closed", []byte{0x1b, 0x7f, 0x3, 0x1, 0x1, 0x5, 0x68, 0x65, 0x6c, 0x6c, 0x6f,
			0x1, 0xff, 0x80, 0x0, 0x1, 0x1, 0x1, 0x4, 0x46, 0x72, 0x6f, 0x6d, 0x1, 0x6, 0x0, 0x0, 0x0,
			0x5, 0xff, 0x80, 0x1, 0x1, 0x0}, rejected},
		{"garbage is closed", bytes.Repeat([]byte{0xA5, 0x5A, 0x00, 0xC3}, 16), rejected},
		{"silence is closed", nil, rejected},
	}

	// Open every connection first, so the listeners' deadlines run side
	// by side, then check the outcomes one by one.
	conns := make(map[string][]net.Conn)
	for name, tg := range targets {
		for _, tc := range cases {
			conn, err := net.DialTimeout("tcp", tg.addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.opening); err != nil {
				t.Fatal(err)
			}
			conns[name] = append(conns[name], conn)
		}
	}
	for name, tg := range targets {
		for i, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) { tc.check(t, tg.node, conns[name][i]) })
		}
	}

	// With every connection closed, every goroutine serving one must go.
	for _, cs := range conns {
		for _, conn := range cs {
			conn.Close()
		}
	}
	deadline := time.Now().Add(closeBy)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		serving := strings.Count(stacks, "cluster.(*Group).serveConn(")
		if serving == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connection-serving goroutines leaked:\n%s", serving, stacks)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
