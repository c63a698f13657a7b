package cluster_test

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"tempo/client"
	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// TestCoordinatorLossStall pins how long a coordinator's crash stalls the
// clients of the other sites at shipped defaults. Three loopback nodes
// take open-loop puts at sites 0 and 2; site 2 is blacked out for 20 ms
// with commands in flight (its fast-quorum member has proposed them, but
// nothing it sends is answered) and then closed, as the benchmark's crash
// workload does. Those commands hold site 0's stability frontier back
// until the leader recovers them, so the longest gap between completions
// at site 0 is the blackout plus the time to suspect the silent
// coordinator — well under RecoveryTimeout (500 ms), the fallback that
// would otherwise set it.
func TestCoordinatorLossStall(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback cluster for over a second")
	}
	const (
		interval = time.Millisecond // per loaded site
		maxGap   = 200 * time.Millisecond
	)
	names := []string{"s0", "s1", "s2"}
	rtt := make([][]time.Duration, len(names))
	for i := range rtt {
		rtt[i] = make([]time.Duration, len(names))
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
		lns[pi.ID], addrs[pi.ID] = ln, ln.Addr().String()
	}
	shaper := cluster.NewShaper(nil)
	t.Cleanup(shaper.Close)
	nodes := make(map[ids.ProcessID]*cluster.Node)
	for _, pi := range topo.Processes() {
		n := cluster.NewNode(pi.ID, tempo.New(pi.ID, topo, tempo.Config{}), addrs)
		n.SetShaper(shaper)
		if err := n.StartListener(lns[pi.ID]); err != nil {
			t.Fatal(err)
		}
		nodes[pi.ID] = n
		t.Cleanup(n.Close)
	}
	home, victim := topo.ProcessAt(0, 0), topo.ProcessAt(2, 0)

	// load puts to one node every interval, each on its own goroutine,
	// until stop closes; done records the completion times of the puts
	// that succeeded.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done []time.Time
	)
	stop := make(chan struct{})
	load := func(at ids.ProcessID, record bool) {
		sess, err := client.New(client.Config{Addrs: map[ids.ProcessID]string{at: addrs[at]}, RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if sess.Put(context.Background(), fmt.Sprintf("k%d-%d", at, i%1024), []byte("v")) == nil && record {
						mu.Lock()
						done = append(done, time.Now())
						mu.Unlock()
					}
				}(i)
			}
		}()
	}
	load(home, true)
	load(victim, false)

	time.Sleep(300 * time.Millisecond) // warm-up
	fault := time.Now()
	for _, from := range topo.Processes() {
		if from.ID != victim {
			shaper.CutOneWay(from.ID, victim)
		}
	}
	time.Sleep(20 * time.Millisecond)
	nodes[victim].Close()
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	slices.SortFunc(done, func(a, b time.Time) int { return a.Compare(b) })
	// Gaps from the fault on; the last completion before it opens the
	// first one.
	var worst time.Duration
	var after int
	prev := fault
	for _, c := range done {
		if c.Before(fault) {
			prev = c
			continue
		}
		after++
		worst = max(worst, c.Sub(prev))
		prev = c
	}
	if after < 100 {
		t.Fatalf("only %d puts completed at site 0 after the fault", after)
	}
	t.Logf("%d puts completed at site 0 after the fault; longest gap %v; leader recoveries %d",
		after, worst.Round(time.Millisecond), nodes[home].Stats().RecoveredCmds)
	if worst >= maxGap {
		t.Fatalf("site 0 stalled %v after site 2's coordinator died, want < %v", worst.Round(time.Millisecond), maxGap)
	}
}
