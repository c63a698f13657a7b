package cluster

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"tempo/internal/ids"
)

// TestMemoryFlat is the end-to-end guard on per-command state: a 3-node
// loopback cluster serves N commands, then N more, and after each phase
// has quiesced both the live-command gauges and the heap in use must be
// where they were — memory follows the in-flight window, not the run.
// The heap bound is 1.2x plus a quarter of one phase's payload bytes:
// after N commands the heap is a few MB of buffers still growing to
// their working size, which 1.2x alone cannot tell from a leak, while a
// replica retaining even one command in three keeps more than that.
// Every node is coordinator, fast-quorum member and payload-only replica
// for a third of the commands each, so a leak on any of the three roles
// shows. On failure the heap profile of the second phase is kept.
func TestMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("flatness test drives 24k commands")
	}
	const (
		phase   = 8000 // commands per phase: N, then 2N in total
		clients = 2    // per node
		keys    = 64   // the state machine itself must not grow
		valueSz = 2048 // dominates a retained payload
		slack   = 1.2
		buffers = phase * valueSz / 4
	)
	nodes, addrs, topo := startCluster(t, 3, 1)

	load := func() {
		var wg sync.WaitGroup
		errs := make(chan error, 3*clients)
		for site := 0; site < 3; site++ {
			addr := addrs[topo.ProcessAt(ids.SiteID(site), 0)]
			for k := 0; k < clients; k++ {
				wg.Add(1)
				go func(who int) {
					defer wg.Done()
					c, err := dialClient(addr)
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					value := make([]byte, valueSz)
					for i := 0; i < phase/(3*clients); i++ {
						if err := c.Put(fmt.Sprintf("flat-%d", (who+i)%keys), value); err != nil {
							errs <- err
							return
						}
					}
				}(site*clients + k)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	// settle waits for collection to finish (it trails the last reply by
	// a few promise intervals) and returns the live commands left over
	// all nodes and the heap in use once garbage is gone.
	settle := func() (live int, heap uint64) {
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			live = 0
			for _, n := range nodes {
				live += n.Stats().LiveCmds
			}
			if live == 0 || time.Now().After(deadline) {
				break
			}
		}
		runtime.GC()
		runtime.GC() // the second cycle empties sync.Pool victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return live, ms.HeapInuse
	}

	load()
	live1, heap1 := settle()
	load()
	live2, heap2 := settle()
	t.Logf("after N=%d: %d live commands, %.1f MB heap in use; after 2N: %d live, %.1f MB",
		phase, live1, float64(heap1)/(1<<20), live2, float64(heap2)/(1<<20))

	if float64(live2) > slack*float64(live1) || float64(heap2) > slack*float64(heap1)+buffers {
		t.Errorf("memory grew with the run: live commands %d -> %d, heap in use %d -> %d bytes (limit %.1fx + %d)",
			live1, live2, heap1, heap2, slack, buffers)
		// Outside t.TempDir, which is removed when the test ends.
		if f, err := os.CreateTemp("", "tempo-flat-*.heap.pprof"); err == nil {
			if err := pprof.Lookup("heap").WriteTo(f, 0); err == nil {
				t.Logf("heap profile: go tool pprof -sample_index=inuse_space %s", f.Name())
			}
			f.Close()
		}
	}
}
