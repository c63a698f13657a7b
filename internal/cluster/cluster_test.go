package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// startCluster boots r Tempo nodes on loopback and returns them with
// their client addresses.
func startCluster(t *testing.T, r, f int) ([]*Node, map[ids.ProcessID]string, *topology.Topology) {
	t.Helper()
	names := make([]string, r)
	rtt := make([][]time.Duration, r)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		rtt[i] = make([]time.Duration, r)
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: f})
	if err != nil {
		t.Fatal(err)
	}
	// Bind every listener first so the address map is complete and
	// immutable before any node starts sending.
	addrs := make(map[ids.ProcessID]string)
	lns := make(map[ids.ProcessID]net.Listener)
	for _, pi := range topo.Processes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[pi.ID] = ln
		addrs[pi.ID] = ln.Addr().String()
	}
	var nodes []*Node
	for _, pi := range topo.Processes() {
		rep := tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: 2 * time.Millisecond,
			RecoveryTimeout: time.Hour,
		})
		n := NewNode(pi.ID, rep, addrs)
		n.StartListener(lns[pi.ID])
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes, addrs, topo
}

func TestLoopbackPutGet(t *testing.T) {
	nodes, addrs, topo := startCluster(t, 3, 1)
	_ = nodes
	c, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("got %q", v)
	}
}

func TestLoopbackCrossNodeVisibility(t *testing.T) {
	_, addrs, topo := startCluster(t, 3, 1)
	c0, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if err := c0.Put("shared", []byte("from-node-0")); err != nil {
		t.Fatal(err)
	}
	c2, err := dialClient(addrs[topo.ProcessAt(2, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Linearizability: the read at another node sees the earlier write.
	v, err := c2.Get("shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("from-node-0")) {
		t.Fatalf("read at node 2 = %q", v)
	}
}

func TestLoopbackConcurrentClients(t *testing.T) {
	_, addrs, topo := startCluster(t, 3, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for site := 0; site < 3; site++ {
		addr := addrs[topo.ProcessAt(ids.SiteID(site), 0)]
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(addr string, who int) {
				defer wg.Done()
				c, err := dialClient(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for i := 0; i < 5; i++ {
					if err := c.Put("contended", []byte{byte(who), byte(i)}); err != nil {
						errs <- err
						return
					}
				}
			}(addr, site*2+k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All replicas converge to the same final value.
	var vals [][]byte
	for site := 0; site < 3; site++ {
		c, err := dialClient(addrs[topo.ProcessAt(ids.SiteID(site), 0)])
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Get("contended")
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	if !bytes.Equal(vals[0], vals[1]) || !bytes.Equal(vals[1], vals[2]) {
		t.Fatalf("replicas diverged: %v", vals)
	}
}

func TestLoopbackFiveNodesF2(t *testing.T) {
	_, addrs, topo := startCluster(t, 5, 2)
	c, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.Get("k7")
	if err != nil || len(v) != 1 || v[0] != 7 {
		t.Fatalf("k7 = %v, %v", v, err)
	}
}

// TestWriteBatchSplitsFrames pins the frame-budget behaviour: a batch
// whose encoding exceeds the group's frame limit is split across frames (each
// acceptable to a receiver), and a single message that can never fit is
// dropped rather than wedging the link forever.
func TestWriteBatchSplitsFrames(t *testing.T) {
	mkStable := func(seq uint64) *tempo.MStable {
		return &tempo.MStable{ID: ids.Dot{Source: 1, Seq: seq}, Shard: 0}
	}
	big := &tempo.MPayload{
		ID:  ids.Dot{Source: 1, Seq: 99},
		Cmd: command.NewPut(ids.Dot{Source: 1, Seq: 99}, "k", bytes.Repeat([]byte{7}, 200)),
	}
	var batch []groupMsg
	for seq := uint64(1); seq <= 20; seq++ { // ~20 small messages: > one 64B frame
		batch = append(batch, groupMsg{from: 7, to: 8, msg: mkStable(seq)})
	}
	batch = append(batch[:10:10], append([]groupMsg{{from: 7, to: 8, msg: big}}, batch[10:]...)...)

	g := &Group{frameLimit: 64}
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	var head, body []byte
	if err := g.writeGroupBatch(bw, batch, &head, &body); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Parse the stream as a receiver would and collect the messages.
	br := bufio.NewReader(&out)
	var got []proto.Message
	frames := 0
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			break
		}
		if size > g.frameLimit {
			t.Fatalf("frame body %d exceeds budget %d", size, g.frameLimit)
		}
		frames++
		buf := make([]byte, size)
		if _, err := io.ReadFull(br, buf); err != nil {
			t.Fatal(err)
		}
		for b := buf; len(b) > 0; {
			var from, to uint64
			if from, b, err = proto.ReadUvarint(b); err != nil || from != 7 {
				t.Fatalf("record from = %d, %v", from, err)
			}
			if to, b, err = proto.ReadUvarint(b); err != nil || to != 8 {
				t.Fatalf("record to = %d, %v", to, err)
			}
			var msg proto.Message
			if msg, b, err = proto.DecodeMessage(b); err != nil {
				t.Fatal(err)
			}
			got = append(got, msg)
		}
	}
	if frames < 2 {
		t.Fatalf("expected the batch split across frames, got %d", frames)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d messages, want the 20 small ones", len(got))
	}
	for i, m := range got {
		ms, ok := m.(*tempo.MStable)
		if !ok || ms.ID.Seq != uint64(i+1) {
			t.Fatalf("message %d = %+v: oversized message not dropped or order lost", i, m)
		}
	}
}

// TestLinkRedialsAfterPeerHangUp pins how a link writer reacts to its
// peer closing the connection, as a restarting site does with every
// inbound link: it must let the dead connection go at once, so the next
// message leaves on a fresh one. Written into the old connection, that
// message would be accepted by the kernel and lost.
func TestLinkRedialsAfterPeerHangUp(t *testing.T) {
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.SetDeadline(time.Now().Add(5 * time.Second))
	addrs := map[ids.ProcessID]string{2: ln.Addr().String()}
	g := NewGroup(addrs, nil)
	defer g.Close()
	// A hosted node sizes the link queues; it is never started.
	g.AddNode(NewNode(1, tempo.New(1, topology.EC2Sharded(1), tempo.Config{}), addrs))
	accept := func() (*net.TCPConn, *bufio.Reader) {
		t.Helper()
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(c)
		var magic [4]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil || magic != GroupMagic {
			t.Fatalf("link opened with %x, %v", magic, err)
		}
		return c.(*net.TCPConn), br
	}
	expect := func(br *bufio.Reader, seq uint64) {
		t.Helper()
		var buf []byte
		b, err := ReadFrame(br, defaultMaxFrameBytes, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 { // from, to
			if _, b, err = proto.ReadUvarint(b); err != nil {
				t.Fatal(err)
			}
		}
		m, _, err := proto.DecodeMessage(b)
		if ms, ok := m.(*tempo.MStable); err != nil || !ok || ms.ID.Seq != seq {
			t.Fatalf("received %+v, %v; want MStable %d", m, err, seq)
		}
	}
	send := func(seq uint64) { g.forward(1, 2, &tempo.MStable{ID: ids.Dot{Source: 1, Seq: seq}}) }

	send(1)
	c1, br1 := accept()
	expect(br1, 1)
	// The peer hangs up its sending half; the writer must close the link
	// in response, which the peer sees as EOF.
	if err := c1.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := br1.ReadByte(); err != io.EOF {
		t.Fatalf("writer kept the link its peer closed: read %v", err)
	}
	c1.Close()
	send(2)
	c2, br2 := accept()
	defer c2.Close()
	expect(br2, 2)
}

func TestClientErrors(t *testing.T) {
	_, addrs, topo := startCluster(t, 3, 1)
	c, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(); err == nil {
		t.Fatal("empty command should fail")
	}
	if _, err := dialClient("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a dead address should fail")
	}
}
