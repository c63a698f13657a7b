package cluster

import (
	"bytes"
	"fmt"
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

// startClusterWith boots a cluster like startCluster but lets the test
// configure each node (batch tuning, executor observers) before it
// starts.
func startClusterWith(t *testing.T, r, f int, configure func(i int, n *Node)) ([]*Node, map[ids.ProcessID]string, *topology.Topology) {
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
	for i, pi := range topo.Processes() {
		rep := tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: 2 * time.Millisecond,
			RecoveryTimeout: time.Hour,
		})
		n := NewNode(pi.ID, rep, addrs)
		if configure != nil {
			configure(i, n)
		}
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

// TestBatchIndependentResults pins per-request result routing through a
// shared batch: requests coalesced into one multi-op command must each
// complete with their own values, and a request whose deadline expires
// while queued fails with a timeout without dragging its batchmates
// down.
func TestBatchIndependentResults(t *testing.T) {
	var obsMu sync.Mutex
	var observed []*command.Command
	nodes, addrs, topo := startClusterWith(t, 3, 1, func(i int, n *Node) {
		if i == 0 {
			// A wide window so the three requests below land in one
			// bucket, flushed together long after A's deadline passed.
			n.SetBatch(1<<16, 60*time.Millisecond)
			n.execObserver = func(st proto.Stable) {
				obsMu.Lock()
				observed = append(observed, st.Cmd)
				obsMu.Unlock()
			}
		}
	})

	// Seed values through another node so the gets below have something
	// to read; their completion implies the writes are stable.
	seed, err := dialClient(addrs[topo.ProcessAt(1, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	for i := 1; i <= 3; i++ {
		if err := seed.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	n0 := nodes[0]
	// Park a never-completing pending command so the idle-node immediate
	// flush (group commit) stays out of the way and the window applies.
	blocker, _ := pipeWaiter(t, time.Time{})
	n0.waitMu.Lock()
	n0.waiters[ids.Dot{Source: 99, Seq: 1}] = &pendingCmd{members: []*waiter{blocker}}
	n0.syncPendingLocked()
	n0.waitMu.Unlock()

	wA, brA := pipeWaiter(t, time.Now().Add(time.Millisecond)) // expires before the flush
	wB, brB := pipeWaiter(t, time.Time{})
	wC, brC := pipeWaiter(t, time.Time{})
	n0.submit(wA, []command.Op{{Kind: command.Put, Key: "a", Value: []byte("never")}})
	n0.submit(wB, []command.Op{{Kind: command.Get, Key: "k1"}})
	n0.submit(wC, []command.Op{{Kind: command.Get, Key: "k2"}, {Kind: command.Get, Key: "k3"}})

	if _, werr, _ := readReply(t, brA); werr.Code != command.ErrCodeTimeout {
		t.Fatalf("expired batch member reply = %+v, want a timeout", werr)
	}
	if _, werr, vals := readReply(t, brB); werr.Code != command.ErrCodeNone ||
		len(vals) != 1 || !bytes.Equal(vals[0], []byte("v1")) {
		t.Fatalf("request B reply = %+v %q, want [v1]", werr, vals)
	}
	if _, werr, vals := readReply(t, brC); werr.Code != command.ErrCodeNone || len(vals) != 2 ||
		!bytes.Equal(vals[0], []byte("v2")) || !bytes.Equal(vals[1], []byte("v3")) {
		t.Fatalf("request C reply = %+v %q, want [v2 v3]", werr, vals)
	}

	// B and C rode one 3-op command; A's expired put was never submitted.
	obsMu.Lock()
	var batched *command.Command
	for _, c := range observed {
		if len(c.Ops) == 3 {
			batched = c
		}
		for _, op := range c.Ops {
			if op.Key == "a" {
				t.Errorf("expired request's op was submitted in %v", c)
			}
		}
	}
	obsMu.Unlock()
	if batched == nil {
		t.Fatal("B and C were not coalesced into one 3-op command")
	}
	if v, ok := n0.rep.(*tempo.Process).Store().Get("a"); ok {
		t.Fatalf("expired put applied: a=%q", v)
	}
}

// TestExecutorAppliesInTimestampOrder drives concurrent sessions at
// every replica and asserts the executor pipeline applies stable
// commands in (timestamp, id) order — identically at every node.
func TestExecutorAppliesInTimestampOrder(t *testing.T) {
	const perClient = 25
	type obs struct {
		mu  sync.Mutex
		seq []tsDotKey
	}
	observers := make([]*obs, 3)
	nodes, addrs, topo := startClusterWith(t, 3, 1, func(i int, n *Node) {
		o := &obs{}
		observers[i] = o
		n.execObserver = func(st proto.Stable) {
			o.mu.Lock()
			o.seq = append(o.seq, tsDotKey{ts: st.TS, id: st.Cmd.ID})
			o.mu.Unlock()
		}
	})
	_ = nodes

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for site := 0; site < 3; site++ {
		wg.Add(1)
		go func(addr string, who int) {
			defer wg.Done()
			c, err := dialClient(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				if err := c.Put("hot", []byte{byte(who), byte(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(addrs[topo.ProcessAt(ids.SiteID(site), 0)], site)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every node eventually executes every command: each client is
	// sequential, so its puts never coalesce and the workload is exactly
	// 3×perClient commands; the serving nodes are done once the clients
	// return and the others follow within gossip delay.
	const want = 3 * perClient
	deadline := time.Now().Add(10 * time.Second)
	for {
		lens := make([]int, 3)
		for i, o := range observers {
			o.mu.Lock()
			lens[i] = len(o.seq)
			o.mu.Unlock()
		}
		if lens[0] == want && lens[1] == want && lens[2] == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("executors did not converge: %v, want %d each", lens, want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var ref []tsDotKey
	for i, o := range observers {
		o.mu.Lock()
		seq := append([]tsDotKey(nil), o.seq...)
		o.mu.Unlock()
		if len(seq) != want {
			t.Fatalf("node %d executed %d commands, want %d", i, len(seq), want)
		}
		for j := 1; j < len(seq); j++ {
			if !seq[j-1].less(seq[j]) {
				t.Fatalf("node %d applied out of timestamp order at %d: %+v then %+v",
					i, j, seq[j-1], seq[j])
			}
		}
		if i == 0 {
			ref = seq
			continue
		}
		for j := range seq {
			if seq[j] != ref[j] {
				t.Fatalf("node %d execution order diverges from node 0 at %d: %+v vs %+v",
					i, j, seq[j], ref[j])
			}
		}
	}
}

// tsDotKey mirrors the protocol's (timestamp, id) execution order for
// assertions.
type tsDotKey struct {
	ts uint64
	id ids.Dot
}

func (a tsDotKey) less(b tsDotKey) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.id.Less(b.id)
}

// TestBatchDisabled pins the SetBatch(1, 0) escape hatch: requests are
// submitted directly, one command per request.
func TestBatchDisabled(t *testing.T) {
	nodes, _, _ := startClusterWith(t, 3, 1, func(i int, n *Node) {
		n.SetBatch(1, 0)
	})
	n0 := nodes[0]
	if n0.batcher != nil {
		t.Fatal("batcher built despite SetBatch(1, 0)")
	}
	w, br := pipeWaiter(t, time.Time{})
	n0.submit(w, []command.Op{{Kind: command.Put, Key: "x", Value: []byte("v")}})
	if _, werr, _ := readReply(t, br); werr.Code != command.ErrCodeNone {
		t.Fatalf("direct request failed: %+v", werr)
	}
}
