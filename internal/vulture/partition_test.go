package vulture

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"tempo/client"
	"tempo/internal/check"
	"tempo/internal/cluster"
	"tempo/internal/tempo"
)

// TestVulturePartition probes a Tempo cluster through a partition and
// heal of the replica every client is routed to: the run must produce
// zero safety violations — writes that timed out while it was cut off
// may still execute afterwards — and the stall must surface as an
// availability window attributed to an injected fault event.
func TestVulturePartition(t *testing.T) {
	shaper := cluster.NewShaper(nil)
	t.Cleanup(shaper.Close)
	checker := check.NewIncremental()
	addrs := startVultureCluster(t, tempo.Config{
		PromiseInterval: time.Millisecond,
		RecoveryTimeout: 250 * time.Millisecond,
	}, checker, shaper)
	v, err := New(Config{
		Client: client.Config{
			Addrs:          addrs,
			RequestTimeout: 300 * time.Millisecond,
		},
		Writers:         2,
		Readers:         2,
		Keys:            8,
		Interval:        time.Millisecond,
		OutageThreshold: 150 * time.Millisecond,
		Checker:         checker,
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

	time.Sleep(400 * time.Millisecond) // healthy probing establishes version floors
	// Clients route to the lowest-id reachable replica, and the shaper
	// leaves client TCP alone — so isolating replica 1 stalls every
	// probe without disconnecting anyone.
	v.Event("partition")
	shaper.Isolate(1)
	time.Sleep(700 * time.Millisecond)
	v.Event("heal")
	shaper.Rejoin(1)
	time.Sleep(1200 * time.Millisecond) // recovery commits the backlog; probes succeed again
	cancel()
	<-done
	if err, ok := runErr.Load().(error); ok {
		t.Fatalf("run: %v", err)
	}

	if dropped := shaper.Dropped(); dropped == 0 {
		t.Fatal("shaper dropped nothing; the partition never bit")
	}
	r := v.Report()
	if r.Ops < 50 {
		t.Fatalf("only %d ops completed", r.Ops)
	}
	if err := v.Failed(); err != nil {
		t.Fatalf("vulture flagged Tempo: %v", err)
	}
	if len(r.Outages) == 0 {
		t.Fatalf("no availability window recorded across a %v isolation", 700*time.Millisecond)
	}
	for _, o := range r.Outages {
		if o.After == "" {
			t.Fatalf("outage window %+v not attributed to any injected event", o)
		}
	}
}
