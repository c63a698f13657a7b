package client_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"tempo/client"
	"tempo/internal/cluster"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// startCluster boots a full-replication Tempo cluster over loopback:
// r nodes at r sites, one shard.
func startCluster(t *testing.T, r, f int) (map[ids.ProcessID]string, *topology.Topology) {
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
	return startNodes(t, topo), topo
}

// startShardedCluster boots a partial-replication cluster: each shard
// replicated at every one of the given sites.
func startShardedCluster(t *testing.T, sites, shards int) (map[ids.ProcessID]string, *topology.Topology) {
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
	return startNodes(t, topo), topo
}

func startNodes(t *testing.T, topo *topology.Topology) map[ids.ProcessID]string {
	t.Helper()
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
	for _, pi := range topo.Processes() {
		rep := tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: 2 * time.Millisecond,
			RecoveryTimeout: time.Hour,
		})
		n := cluster.NewNode(pi.ID, rep, addrs)
		n.StartListener(lns[pi.ID])
		t.Cleanup(n.Close)
	}
	return addrs
}

// startStuckNode boots a single node of a 3-replica topology whose two
// peers are unreachable: submitted commands can never reach a quorum,
// so they stay pending until a deadline fails them.
func startStuckNode(t *testing.T) string {
	t.Helper()
	names := []string{"s0", "s1", "s2"}
	rtt := [][]time.Duration{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[ids.ProcessID]string{
		1: ln.Addr().String(),
		2: "127.0.0.1:1", // dead
		3: "127.0.0.1:1", // dead
	}
	rep := tempo.New(1, topo, tempo.Config{
		PromiseInterval: 2 * time.Millisecond,
		RecoveryTimeout: time.Hour,
	})
	n := cluster.NewNode(1, rep, addrs)
	n.StartListener(ln)
	t.Cleanup(n.Close)
	return addrs[1]
}

func sessionTo(t *testing.T, addrs ...string) *client.Session {
	t.Helper()
	s, err := client.Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestPipelinedRequests keeps many commands in flight on one connection
// and checks that they all complete and that their effects apply in
// submission order.
func TestPipelinedRequests(t *testing.T) {
	addrs, topo := startCluster(t, 3, 1)
	s := sessionTo(t, addrs[topo.ProcessAt(0, 0)])
	ctx := context.Background()

	const n = 200
	futs := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = s.Do(ctx, command.Op{
			Kind: command.Put, Key: "pipelined", Value: []byte(fmt.Sprintf("v%03d", i)),
		})
	}
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	v, err := s.Get(ctx, "pipelined")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("v%03d", n-1); string(v) != want {
		t.Fatalf("final value %q, want %q: pipelined puts applied out of order", v, want)
	}
}

// TestPipelinedReadsSeeEarlierWrites interleaves reads with writes in
// one pipeline; every read must observe the write submitted just before
// it on the same session.
func TestPipelinedReadsSeeEarlierWrites(t *testing.T) {
	addrs, topo := startCluster(t, 3, 1)
	s := sessionTo(t, addrs[topo.ProcessAt(0, 0)])
	ctx := context.Background()

	const n = 50
	type pair struct{ put, get *client.Future }
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i].put = s.Do(ctx, command.Op{
			Kind: command.Put, Key: "rw", Value: []byte{byte(i)},
		})
		pairs[i].get = s.Do(ctx, command.Op{Kind: command.Get, Key: "rw"})
	}
	for i, p := range pairs {
		if _, err := p.put.Wait(ctx); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		vals, err := p.get.Wait(ctx)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(vals) != 1 || len(vals[0]) != 1 || vals[0][0] < byte(i) {
			t.Fatalf("get %d read %v, want at least [%d]", i, vals, i)
		}
	}
}

// TestContextCancellationMidFlight cancels a request that can never
// complete (no quorum); Wait must return promptly with the context's
// error and the session must remain usable.
func TestContextCancellationMidFlight(t *testing.T) {
	addr := startStuckNode(t)
	s := sessionTo(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	f := s.Do(ctx, command.Op{Kind: command.Put, Key: "k", Value: []byte("v")})
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := f.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled Wait took %v", el)
	}
	// The session is still usable: a second in-flight request completes
	// independently (with its own deadline).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	if _, err := s.Do(ctx2, command.Op{Kind: command.Get, Key: "k"}).Wait(ctx2); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("second request = %v, want ErrTimeout", err)
	}
}

// TestDeadlinePropagation sends a request with a server-side deadline
// (no client-side one) to a node that cannot execute it: the replica
// itself must fail the command with a typed timeout.
func TestDeadlinePropagation(t *testing.T) {
	addr := startStuckNode(t)
	s, err := client.New(client.Config{
		Addrs:          map[ids.ProcessID]string{1: addr},
		RequestTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The context has no deadline, so the only timeout source is the
	// server honoring the propagated per-request deadline.
	start := time.Now()
	_, err = s.Execute(context.Background(), command.Op{Kind: command.Put, Key: "k", Value: []byte("v")})
	el := time.Since(start)
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("Execute on stuck node = %v, want ErrTimeout", err)
	}
	if el < 200*time.Millisecond || el > 5*time.Second {
		t.Fatalf("server-side deadline fired after %v, want ≈250ms", el)
	}
}

// TestClientDeadlineShortCircuits checks the client side of deadline
// handling: an already-expired context fails fast with ErrTimeout.
func TestClientDeadlineShortCircuits(t *testing.T) {
	addr := startStuckNode(t)
	s := sessionTo(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Execute(ctx, command.Op{Kind: command.Get, Key: "k"})
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("client deadline took %v", el)
	}
}

// TestGetNotFound pins the typed-error contract: a missing key is
// ErrNotFound, a present empty value is not.
func TestGetNotFound(t *testing.T) {
	addrs, topo := startCluster(t, 3, 1)
	s := sessionTo(t, addrs[topo.ProcessAt(0, 0)])
	ctx := context.Background()

	if _, err := s.Get(ctx, "never-written"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := s.Put(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "empty")
	if err != nil {
		t.Fatalf("Get(empty) = %v, want success: empty value conflated with missing key", err)
	}
	if v == nil || len(v) != 0 {
		t.Fatalf("Get(empty) = %v, want non-nil empty", v)
	}
}

// TestClosedSession pins ErrClosed.
func TestClosedSession(t *testing.T) {
	addrs, topo := startCluster(t, 3, 1)
	s := sessionTo(t, addrs[topo.ProcessAt(0, 0)])
	ctx := context.Background()
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Get(ctx, "k"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Get on closed session = %v, want ErrClosed", err)
	}
}

// TestShardRouting drives a sharded deployment through a topology-aware
// session: commands are routed to replicas of the owning shard and
// cross-site sessions observe each other's writes.
func TestShardRouting(t *testing.T) {
	addrs, topo := startShardedCluster(t, 3, 2)
	mk := func(site ids.SiteID) *client.Session {
		s, err := client.New(client.Config{Addrs: addrs, Topo: topo, Site: site})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	s0, s1 := mk(0), mk(1)
	ctx := context.Background()

	// Find one key per shard.
	keys := map[ids.ShardID]string{}
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("key-%d", i)
		sh := topo.ShardOf(command.Key(k))
		if _, ok := keys[sh]; !ok {
			keys[sh] = k
		}
	}
	for sh, k := range keys {
		if err := s0.Put(ctx, k, []byte(fmt.Sprintf("shard-%d", sh))); err != nil {
			t.Fatalf("put %s (shard %d): %v", k, sh, err)
		}
	}
	for sh, k := range keys {
		v, err := s1.Get(ctx, k)
		if err != nil || string(v) != fmt.Sprintf("shard-%d", sh) {
			t.Fatalf("cross-site get %s = %q, %v", k, v, err)
		}
	}
}

// TestDialFailover routes around an unreachable preferred replica: the
// session fails over to the shard's other replicas.
func TestDialFailover(t *testing.T) {
	addrs, topo := startCluster(t, 3, 1)
	broken := make(map[ids.ProcessID]string, len(addrs))
	for id, a := range addrs {
		broken[id] = a
	}
	broken[topo.ProcessAt(0, 0)] = "127.0.0.1:1" // preferred replica unreachable
	s, err := client.New(client.Config{Addrs: broken})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put with dead preferred replica = %v, want failover success", err)
	}
	v, err := s.Get(ctx, "k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get after failover = %q, %v", v, err)
	}
}

// TestServerCloseFailsInFlight shuts a node down under an in-flight
// request with no deadline at all: the future must fail promptly (with
// the shutdown reply or the connection teardown) instead of hanging on
// a silent socket.
func TestServerCloseFailsInFlight(t *testing.T) {
	names := []string{"s0", "s1", "s2"}
	rtt := [][]time.Duration{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[ids.ProcessID]string{1: ln.Addr().String(), 2: "127.0.0.1:1", 3: "127.0.0.1:1"}
	rep := tempo.New(1, topo, tempo.Config{PromiseInterval: 2 * time.Millisecond, RecoveryTimeout: time.Hour})
	n := cluster.NewNode(1, rep, addrs)
	n.StartListener(ln)

	s, err := client.New(client.Config{
		Addrs:          map[ids.ProcessID]string{1: addrs[1]},
		RequestTimeout: -1, // no deadline anywhere: only shutdown can end this
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f := s.Do(context.Background(), command.Op{Kind: command.Put, Key: "k", Value: []byte("v")})
	time.AfterFunc(100*time.Millisecond, n.Close)
	done := make(chan error, 1)
	go func() {
		_, err := f.Wait(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request on a closed node succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request hung across node shutdown")
	}
}

// TestBatchedRequestsRouteResults floods one connection with pipelined
// requests — the server coalesces them into multi-op commands — and
// checks every future completes with exactly its own request's results:
// single-op gets, multi-op requests, and not-found reads must come back
// correctly segmented, not shifted into a batchmate's slot.
func TestBatchedRequestsRouteResults(t *testing.T) {
	addrs, topo := startCluster(t, 3, 1)
	s := sessionTo(t, addrs[topo.ProcessAt(0, 0)])
	ctx := context.Background()

	const n = 64
	puts := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		puts[i] = s.Do(ctx, command.Op{
			Kind: command.Put, Key: command.Key(fmt.Sprintf("bk%02d", i)),
			Value: []byte(fmt.Sprintf("bv%02d", i)),
		})
	}
	for i, f := range puts {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// One burst: single gets, two-op requests, and reads of missing keys,
	// all in flight at once so they share batches.
	singles := make([]*client.Future, n)
	doubles := make([]*client.Future, n/2)
	missing := make([]*client.Future, n/4)
	for i := 0; i < n; i++ {
		singles[i] = s.Do(ctx, command.Op{Kind: command.Get, Key: command.Key(fmt.Sprintf("bk%02d", i))})
		if i < n/2 {
			doubles[i] = s.Do(ctx,
				command.Op{Kind: command.Get, Key: command.Key(fmt.Sprintf("bk%02d", i))},
				command.Op{Kind: command.Get, Key: command.Key(fmt.Sprintf("bk%02d", n-1-i))},
			)
		}
		if i < n/4 {
			missing[i] = s.Do(ctx, command.Op{Kind: command.Get, Key: command.Key(fmt.Sprintf("absent%02d", i))})
		}
	}
	for i, f := range singles {
		vals, err := f.Wait(ctx)
		if err != nil || len(vals) != 1 || string(vals[0]) != fmt.Sprintf("bv%02d", i) {
			t.Fatalf("single get %d = %q, %v", i, vals, err)
		}
	}
	for i, f := range doubles {
		vals, err := f.Wait(ctx)
		if err != nil || len(vals) != 2 ||
			string(vals[0]) != fmt.Sprintf("bv%02d", i) || string(vals[1]) != fmt.Sprintf("bv%02d", n-1-i) {
			t.Fatalf("double get %d = %q, %v", i, vals, err)
		}
	}
	for i, f := range missing {
		vals, err := f.Wait(ctx)
		if err != nil || len(vals) != 1 || vals[0] != nil {
			t.Fatalf("missing get %d = %q, %v; want one nil value", i, vals, err)
		}
	}
}

// TestConnectionLossFailsInFlight uses a fake replica that accepts a
// request and drops the connection: the in-flight future must fail
// rather than hang.
func TestConnectionLossFailsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var magic [4]byte
		br.Read(magic[:])
		var buf []byte
		cluster.ReadFrame(br, cluster.MaxClientFrameBytes, &buf) // swallow one request
		conn.Close()
	}()

	s := sessionTo(t, ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = s.Do(ctx, command.Op{Kind: command.Get, Key: "k"}).Wait(ctx)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("in-flight request on lost connection = %v, want prompt connection error", err)
	}
}

// TestPreferRoutesToHomeReplica pins per-session home routing: a session
// with Prefer set coordinates its commands at that replica (observable
// through the replica's coordinator stats).
func TestPreferRoutesToHomeReplica(t *testing.T) {
	addrs, topo := startCluster(t, 3, 1)
	home := topo.ProcessAt(1, 0) // id 2
	sess, err := client.New(client.Config{Addrs: addrs, Prefer: home})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := sess.Put(ctx, fmt.Sprintf("prefer-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// All five writes went through the home replica: reading them back
	// through it must succeed even if the id-order default (node 1) was
	// never touched. The strongest black-box signal that routing honours
	// Prefer is that a session whose ONLY address is the home replica
	// observes the same session state.
	pin, err := client.New(client.Config{Addrs: map[ids.ProcessID]string{home: addrs[home]}})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	v, err := pin.Get(ctx, "prefer-4")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("prefer-4 = %q, %v", v, err)
	}
}

// TestRedialBackoffFailsOverThenRebalances pins the outage lifecycle: a
// session keeps serving while its home replica is down (fast failover
// after one failed dial, no per-request dial timeouts), and returns to
// the home replica once it is back and the backoff expires — the
// crash-restart client story end to end.
func TestRedialBackoffFailsOverThenRebalances(t *testing.T) {
	// A 3-replica topology where node 1 starts out down: its address is
	// reserved but nothing listens there yet.
	names := []string{"s0", "s1", "s2"}
	rtt := [][]time.Duration{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	lnHome, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	homeAddr := lnHome.Addr().String()
	lnHome.Close()
	lns := make(map[ids.ProcessID]net.Listener)
	// Node 3 is the one that starts out down: fast quorums prefer the
	// low-id replicas, so the surviving pair keeps committing without
	// the recovery protocol.
	addrs := map[ids.ProcessID]string{3: homeAddr}
	for _, pid := range []ids.ProcessID{1, 2} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[pid] = ln
		addrs[pid] = ln.Addr().String()
	}
	mkRep := func(pid ids.ProcessID) *tempo.Process {
		// A realistic recovery timeout matters here: the node joining
		// late fills the holes left by its peers' attached promises
		// through the MCommitRequest liveness path, which is paced by
		// this timeout.
		return tempo.New(pid, topo, tempo.Config{PromiseInterval: 2 * time.Millisecond, RecoveryTimeout: 100 * time.Millisecond})
	}
	for _, pid := range []ids.ProcessID{1, 2} {
		n := cluster.NewNode(pid, mkRep(pid), addrs)
		n.StartListener(lns[pid])
		t.Cleanup(n.Close)
	}

	sess, err := client.New(client.Config{
		Addrs:         addrs,
		Prefer:        3,
		RedialBackoff: 200 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	// Home is down: the first request pays the failed dial, fails over,
	// and succeeds; follow-ups skip the dead replica via the backoff.
	if err := sess.Put(ctx, "fo", []byte("v1")); err != nil {
		t.Fatalf("put with home down: %v", err)
	}
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := sess.Put(ctx, "fo", []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 400*time.Millisecond {
		t.Fatalf("10 puts with home in backoff took %v: requests are paying dial attempts", d)
	}

	// Node 3 comes up on its advertised address (as a restart would)...
	ln1, err := net.Listen("tcp", homeAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", homeAddr, err)
	}
	rep1 := mkRep(3)
	n1 := cluster.NewNode(3, rep1, addrs)
	n1.StartListener(ln1)
	t.Cleanup(n1.Close)

	// ...and after the backoff expires the session re-balances to it:
	// the home replica starts coordinating this session's commands
	// again, observable through its coordinator stats.
	time.Sleep(250 * time.Millisecond)
	before, _, _ := rep1.Stats()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sess.Put(ctx, "fo", []byte("v3")); err != nil {
			t.Fatal(err)
		}
		fast, slow, rec := rep1.Stats()
		if fast+slow+rec > before {
			break // the home replica coordinated a command again
		}
		if time.Now().After(deadline) {
			t.Fatal("session never re-balanced to the recovered home replica")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
