package vulture

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tempo/client"
	"tempo/internal/check"
	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

func TestValueCodecRoundTrip(t *testing.T) {
	for _, ver := range []uint64{0, 1, 7, 1 << 40} {
		val := encodeValue("vult-0001", ver)
		got, err := decodeValue("vult-0001", val)
		if err != nil {
			t.Fatalf("decode(%q): %v", val, err)
		}
		if got != ver {
			t.Fatalf("round trip %d -> %d", ver, got)
		}
	}
	if _, err := decodeValue("vult-0002", encodeValue("vult-0001", 3)); err == nil {
		t.Fatal("wrong key echo must not decode")
	}
	bad := encodeValue("vult-0001", 3)
	bad[0] ^= 0x40
	if _, err := decodeValue("vult-0001", bad); err == nil {
		t.Fatal("corrupted value must not decode")
	}
	if _, err := decodeValue("vult-0001", []byte("junk")); err == nil {
		t.Fatal("junk must not decode")
	}
}

// startVultureCluster boots a 3-replica Tempo loopback cluster and
// returns the client address map. When checker is non-nil every node's
// execution stream is fed into it; when shaper is non-nil every node's
// peer links run through it.
func startVultureCluster(t *testing.T, cfg tempo.Config, checker *check.Incremental, shaper *cluster.Shaper) map[ids.ProcessID]string {
	t.Helper()
	const r = 3
	names := make([]string, r)
	rtt := make([][]time.Duration, r)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		rtt[i] = make([]time.Duration, r)
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
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
	for _, pi := range topo.Processes() {
		pi := pi
		n := cluster.NewNode(pi.ID, tempo.New(pi.ID, topo, cfg), addrs)
		n.SetShaper(shaper)
		if checker != nil {
			checker.AddProcess(0, pi.ID)
			n.SetExecObserver(func(st proto.Stable) {
				checker.Executed(pi.ID, st.Shard, st.Cmd.ID, st.TS)
			})
		}
		if err := n.StartListener(lns[pi.ID]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
	}
	return addrs
}

// healthyConfig is the replica config of the fault-free tests: recovery
// never fires.
var healthyConfig = tempo.Config{PromiseInterval: time.Millisecond, RecoveryTimeout: time.Hour}

// TestVultureCleanRun probes a healthy cluster (with the execution
// checker attached) and must come back with operations done and zero
// violations.
func TestVultureCleanRun(t *testing.T) {
	checker := check.NewIncremental()
	addrs := startVultureCluster(t, healthyConfig, checker, nil)
	v, err := New(Config{
		Client:   client.Config{Addrs: addrs},
		Writers:  2,
		Readers:  2,
		Keys:     16,
		Interval: time.Millisecond,
		Checker:  checker,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	if err := v.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	r := v.Report()
	if r.Ops < 100 {
		t.Fatalf("only %d ops completed", r.Ops)
	}
	if r.Writes == 0 || r.Reads == 0 {
		t.Fatalf("lopsided probe mix: %d writes, %d reads", r.Writes, r.Reads)
	}
	if err := v.Failed(); err != nil {
		t.Fatalf("healthy cluster flagged: %v", err)
	}
	if r.CheckerStats == nil || r.CheckerStats.Seen == 0 {
		t.Fatal("execution checker saw no stream")
	}
}

// TestVultureDetectsSeededViolations is the negative control: a rogue
// writer outside the vulture plants (a) a phantom version and (b) a
// corrupt value on vulture-owned keys, and the vulture must flag both.
func TestVultureDetectsSeededViolations(t *testing.T) {
	addrs := startVultureCluster(t, healthyConfig, nil, nil)
	v, err := New(Config{
		Client:   client.Config{Addrs: addrs},
		Writers:  1,
		Readers:  2,
		Keys:     2, // tiny keyspace: readers hit the seeded keys fast
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	var runErr atomic.Value
	go func() {
		defer close(done)
		if err := v.Run(ctx); err != nil {
			runErr.Store(err)
		}
	}()

	rogue, err := client.New(client.Config{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	time.Sleep(100 * time.Millisecond) // let the vulture establish floors
	// The owners keep overwriting their keys, so keep re-planting until
	// a probe wins the race and reads the seeded value.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r := v.Report()
		if r.Kinds["phantom-version"] > 0 && r.Kinds["corrupt-value"] > 0 {
			break
		}
		if r.Kinds["phantom-version"] == 0 {
			// Phantom: a version far above anything the owner attempted.
			if err := rogue.Put(ctx, v.keyName(0), encodeValue(v.keyName(0), 1<<40)); err != nil {
				t.Fatalf("seed phantom: %v", err)
			}
		}
		if r.Kinds["corrupt-value"] == 0 {
			// Corruption: bytes that fail the checksum outright.
			if err := rogue.Put(ctx, v.keyName(1), []byte("rotten")); err != nil {
				t.Fatalf("seed corruption: %v", err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if err, ok := runErr.Load().(error); ok {
		t.Fatalf("run: %v", err)
	}
	r := v.Report()
	if r.Kinds["phantom-version"] == 0 {
		t.Fatalf("seeded phantom version not detected: %+v", r.Kinds)
	}
	if r.Kinds["corrupt-value"] == 0 {
		t.Fatalf("seeded corruption not detected: %+v", r.Kinds)
	}
	err = v.Failed()
	if err == nil {
		t.Fatal("Failed() nil despite violations")
	}
	if !strings.Contains(err.Error(), "violation") {
		t.Fatalf("unhelpful failure: %v", err)
	}
}

// TestReadOfFailedWriteIsNotStale drives the read-judging rule directly.
// Version 5 is acked, 6 times out, 7 is acked: 6 is still pending and
// may execute after 7, so reading it is legal; reading 5 is stale (an
// acked later write precedes the read); reading 8 is a phantom.
func TestReadOfFailedWriteIsNotStale(t *testing.T) {
	v, err := New(Config{Client: client.Config{Addrs: map[ids.ProcessID]string{1: "127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	const k = 0
	key := v.keyName(k)
	for ver := uint64(1); ver <= 7; ver++ {
		if got := v.beginWrite(k); got != ver {
			t.Fatalf("beginWrite = %d, want %d", got, ver)
		}
		var werr error
		if ver == 6 {
			werr = client.ErrTimeout
		}
		v.endWrite(k, ver, werr)
	}
	read := func(ver uint64) map[string]uint64 {
		v.judgeRead(k, v.readFloor(k), encodeValue(key, ver), nil)
		return v.Report().Kinds
	}
	if kinds := read(6); len(kinds) != 0 {
		t.Fatalf("read of the timed-out version 6 flagged: %v", kinds)
	}
	if kinds := read(5); kinds["stale-read"] != 1 || len(kinds) != 1 {
		t.Fatalf("read of version 5 after 7 was acked: kinds %v, want one stale-read", kinds)
	}
	if kinds := read(8); kinds["phantom-version"] != 1 || len(kinds) != 2 {
		t.Fatalf("read of never-written version 8: kinds %v, want one phantom-version", kinds)
	}
	if got := v.readFloor(k); got != 8 {
		t.Fatalf("floor after reading 8 = %d, want 8 (observed never goes down)", got)
	}
	if kinds := read(6); kinds["stale-read"] != 1 {
		t.Fatalf("read of the timed-out version 6 below observed 8 flagged: %v", kinds)
	}
	if got := v.readFloor(k); got != 8 {
		t.Fatalf("floor after reading 6 = %d, want 8 (observed never goes down)", got)
	}
}

// TestOutageAttribution exercises the availability-window bookkeeping
// directly: a success after a long gap closes a window attributed to
// the latest injected fault event.
func TestOutageAttribution(t *testing.T) {
	v, err := New(Config{
		Client:          client.Config{Addrs: map[ids.ProcessID]string{1: "127.0.0.1:1"}},
		OutageThreshold: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	v.mu.Lock()
	v.started = now.Add(-10 * time.Second)
	v.lastOK = now.Add(-2 * time.Second)
	v.mu.Unlock()
	v.Event("sigkill")
	v.Event("partition")
	v.noteOp(nil)
	r := v.Report()
	if len(r.Outages) != 1 {
		t.Fatalf("outages = %+v, want one window", r.Outages)
	}
	o := r.Outages[0]
	if o.DurationMS < 1900 {
		t.Fatalf("window %v ms, want ~2000", o.DurationMS)
	}
	if o.After != "partition" {
		t.Fatalf("window attributed to %q, want the latest event", o.After)
	}
	if len(r.Events) != 2 {
		t.Fatalf("events = %+v", r.Events)
	}
	// A prompt follow-up success opens no second window.
	v.noteOp(nil)
	if got := len(v.Report().Outages); got != 1 {
		t.Fatalf("spurious extra window: %d", got)
	}
}
