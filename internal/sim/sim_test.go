package sim

import (
	"math/rand"
	"testing"
	"time"

	"tempo/internal/caesar"
	"tempo/internal/epaxos"
	"tempo/internal/fpaxos"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
	"tempo/internal/workload"
)

func tempoReplica(topo *topology.Topology) func(ids.ProcessID) proto.Replica {
	return func(id ids.ProcessID) proto.Replica {
		// Failure-free runs (as in the paper's evaluation): recovery off,
		// otherwise queueing delays beyond the timeout trigger spurious
		// recoveries that amplify overload.
		return tempo.New(id, topo, tempo.Config{
			PromiseInterval: 2 * time.Millisecond,
			RecoveryTimeout: time.Hour,
		})
	}
}

func runProto(t *testing.T, name string, topo *topology.Topology, nr func(ids.ProcessID) proto.Replica, seed int64) *Result {
	t.Helper()
	res := Run(Config{
		Topo:           topo,
		NewReplica:     nr,
		Workload:       workload.NewMicrobench(0.05, 16, rand.New(rand.NewSource(seed))),
		ClientsPerSite: 4,
		Warmup:         300 * time.Millisecond,
		Duration:       1200 * time.Millisecond,
		Seed:           seed,
		Check:          true,
	})
	if res.CheckErr != nil {
		t.Fatalf("%s: PSMR violation: %v", name, res.CheckErr)
	}
	if res.Completed == 0 {
		t.Fatalf("%s: nothing completed", name)
	}
	return res
}

func TestAllProtocolsCompleteAndSatisfyPSMR(t *testing.T) {
	topo := topology.EC2(1)
	cases := []struct {
		name string
		nr   func(ids.ProcessID) proto.Replica
	}{
		{"tempo", tempoReplica(topo)},
		{"atlas", func(id ids.ProcessID) proto.Replica {
			return epaxos.New(id, topo, epaxos.Config{Variant: epaxos.VariantAtlas})
		}},
		{"epaxos", func(id ids.ProcessID) proto.Replica {
			return epaxos.New(id, topo, epaxos.Config{Variant: epaxos.VariantEPaxos})
		}},
		{"fpaxos", func(id ids.ProcessID) proto.Replica {
			return fpaxos.New(id, topo, fpaxos.Config{})
		}},
		{"caesar", func(id ids.ProcessID) proto.Replica {
			return caesar.New(id, topo, caesar.Config{})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := runProto(t, c.name, topo, c.nr, 42)
			t.Logf("%s: %d ops, %.0f ops/s, mean %v", c.name, res.Completed, res.Throughput, res.All.Mean())
		})
	}
}

// TestTempoLatencyMatchesQuorumGeometry: with f=1 and 5 EC2 sites, a
// Tempo client's commit latency at a site is roughly the RTT to the 2nd
// closest site (fast quorum = self + 2 closest). For Ireland that is
// N. California: 141ms.
func TestTempoLatencyMatchesQuorumGeometry(t *testing.T) {
	topo := topology.EC2(1)
	res := Run(Config{
		Topo:           topo,
		NewReplica:     tempoReplica(topo),
		Workload:       workload.NewMicrobench(0.02, 16, rand.New(rand.NewSource(1))),
		ClientsPerSite: 2,
		Warmup:         300 * time.Millisecond,
		Duration:       1500 * time.Millisecond,
		Seed:           1,
	})
	ireland := ids.SiteID(0)
	mean := res.SiteMean(ireland)
	// Commit takes the fast-quorum RTT (141ms for Ireland); execution
	// additionally waits until the timestamp is stable, i.e. until the
	// commits of in-flight lower-timestamped commands propagate (up to
	// one cross-site commit chain). See EXPERIMENTS.md for the deviation
	// analysis against the paper's Figure 5.
	if mean < 135*time.Millisecond || mean > 250*time.Millisecond {
		t.Errorf("Ireland mean latency %v, want within [135ms, 250ms]", mean)
	}
}

// TestSingleCoordinatorTracksCommit: four zero-conflict clients at
// Ireland on the three-site ring (Ireland, N. California, Singapore)
// share one coordinator whose fast quorum is {Ireland, N. California}.
// Every command must execute one fast-quorum RTT (141ms) after it was
// submitted. A link that lets a later MPropose overtake an earlier one
// makes the member propose the earlier command above the later one, so
// it commits at a timestamp the coordinator has already attached to a
// still-newer command, and it waits for that command's commit: up to a
// second RTT.
func TestSingleCoordinatorTracksCommit(t *testing.T) {
	topo := topology.EC2Sharded(1)
	res := Run(Config{
		Topo:           topo,
		NewReplica:     tempoReplica(topo),
		Workload:       workload.NewMicrobench(0, 16, rand.New(rand.NewSource(1))),
		ClientsPerSite: 4,
		ClientSites:    []ids.SiteID{0},
		Warmup:         300 * time.Millisecond,
		Duration:       2 * time.Second,
		Seed:           1,
	})
	h := res.PerSite[0]
	if p99 := h.Percentile(99); p99 > 145*time.Millisecond {
		t.Errorf("Ireland p99 %v over %d commands (p50 %v), want the 141ms fast-quorum RTT",
			p99, h.Count(), h.Percentile(50))
	}
}

// TestTwoCoordinatorsTrackCommit: on a 100µs LAN with two clients at
// each of sites 0 and 2, process 2 sits in process 1's fast quorum but
// not in process 3's, so every commit of process 3's commands bumps it
// outside any proposal. Process 1's commands must not wait for those
// promises to arrive by the 5ms MPromises gossip.
func TestTwoCoordinatorsTrackCommit(t *testing.T) {
	const rtt = 100 * time.Microsecond
	topo, err := topology.New(topology.Config{
		SiteNames: []string{"a", "b", "c"},
		RTT:       [][]time.Duration{{0, rtt, rtt}, {rtt, 0, rtt}, {rtt, rtt, 0}},
		F:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(Config{
		Topo: topo,
		NewReplica: func(id ids.ProcessID) proto.Replica {
			return tempo.New(id, topo, tempo.Config{
				PromiseInterval: 5 * time.Millisecond,
				RecoveryTimeout: time.Hour,
			})
		},
		Workload:       workload.NewMicrobench(0, 16, rand.New(rand.NewSource(1))),
		ClientsPerSite: 2,
		ClientSites:    []ids.SiteID{0, 2},
		Warmup:         100 * time.Millisecond,
		Duration:       500 * time.Millisecond,
		Seed:           1,
	})
	for _, s := range []ids.SiteID{0, 2} {
		h := res.PerSite[s]
		if p99 := h.Percentile(99); p99 >= time.Millisecond {
			t.Errorf("site %d: p99 %v over %d commands (p50 %v), want under 1ms",
				s, p99, h.Count(), h.Percentile(50))
		}
	}
}

// TestFPaxosUnfairness: FPaxos satisfies the leader site far better than
// remote sites (Figure 5's finding).
func TestFPaxosUnfairness(t *testing.T) {
	topo := topology.EC2(1)
	res := Run(Config{
		Topo: topo,
		NewReplica: func(id ids.ProcessID) proto.Replica {
			return fpaxos.New(id, topo, fpaxos.Config{})
		},
		Workload:       workload.NewMicrobench(0.02, 16, rand.New(rand.NewSource(2))),
		ClientsPerSite: 2,
		Warmup:         300 * time.Millisecond,
		Duration:       1500 * time.Millisecond,
		Seed:           2,
	})
	leaderSite := ids.SiteID(0) // Ireland, rank 1
	singapore := ids.SiteID(2)
	lm, sm := res.SiteMean(leaderSite), res.SiteMean(singapore)
	if sm < 2*lm {
		t.Errorf("FPaxos should be unfair: leader %v vs singapore %v", lm, sm)
	}
}

// TestTempoFairness: Tempo's per-site latencies are far more uniform than
// FPaxos's.
func TestTempoFairness(t *testing.T) {
	topo := topology.EC2(1)
	res := Run(Config{
		Topo:           topo,
		NewReplica:     tempoReplica(topo),
		Workload:       workload.NewMicrobench(0.02, 16, rand.New(rand.NewSource(3))),
		ClientsPerSite: 2,
		Warmup:         300 * time.Millisecond,
		Duration:       1500 * time.Millisecond,
		Seed:           3,
	})
	var minM, maxM time.Duration
	for s := ids.SiteID(0); s < 5; s++ {
		m := res.SiteMean(s)
		if minM == 0 || m < minM {
			minM = m
		}
		if m > maxM {
			maxM = m
		}
	}
	if maxM > 3*minM {
		t.Errorf("Tempo per-site latencies too skewed: %v..%v", minM, maxM)
	}
}

// TestCPUModelSaturates: with a CPU cost model, adding clients stops
// increasing throughput (saturation), and utilization approaches 1.
func TestCPUModelSaturates(t *testing.T) {
	topo := topology.EC2(1)
	cost := &CostModel{PerMsg: 200 * time.Microsecond, PerExec: 20 * time.Microsecond}
	run := func(clients int) *Result {
		return Run(Config{
			Topo:           topo,
			NewReplica:     tempoReplica(topo),
			Workload:       workload.NewMicrobench(0.02, 16, rand.New(rand.NewSource(4))),
			ClientsPerSite: clients,
			Warmup:         200 * time.Millisecond,
			Duration:       time.Second,
			Seed:           4,
			Cost:           cost,
		})
	}
	small := run(2)
	big := run(120)
	if big.Throughput < small.Throughput {
		t.Errorf("more clients should not lose throughput before saturation: %.0f vs %.0f",
			big.Throughput, small.Throughput)
	}
	if big.CPUUtil < 0.5 {
		t.Errorf("expected CPU pressure at 120 clients/site, util %.2f", big.CPUUtil)
	}
	t.Logf("2 clients: %.0f ops/s; 120 clients: %.0f ops/s (cpu %.2f)", small.Throughput, big.Throughput, big.CPUUtil)
}

// TestNICModel: broadcast-heavy FPaxos leader accumulates NIC usage with
// big payloads.
func TestNICModel(t *testing.T) {
	topo := topology.EC2(1)
	cost := &CostModel{NICBytesPerSec: 2 << 20} // 2 MB/s: tiny, to see the effect
	res := Run(Config{
		Topo: topo,
		NewReplica: func(id ids.ProcessID) proto.Replica {
			return fpaxos.New(id, topo, fpaxos.Config{})
		},
		Workload:       workload.NewMicrobench(0.0, 4096, rand.New(rand.NewSource(5))),
		ClientsPerSite: 8,
		Warmup:         200 * time.Millisecond,
		Duration:       time.Second,
		Seed:           5,
		Cost:           cost,
	})
	if res.NetUtil < 0.5 {
		t.Errorf("expected NIC saturation at the leader, util %.2f", res.NetUtil)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

// TestPartialReplicationMultiShard: Tempo with 2 shards over the §6.4
// geometry completes cross-shard commands.
func TestPartialReplicationMultiShard(t *testing.T) {
	topo := topology.EC2Sharded(2)
	res := Run(Config{
		Topo:           topo,
		NewReplica:     tempoReplica(topo),
		Workload:       workload.NewYCSBT(1000, 0.5, 0.5, rand.New(rand.NewSource(6))),
		ClientsPerSite: 3,
		ClientSites:    []ids.SiteID{0, 1, 2},
		Warmup:         300 * time.Millisecond,
		Duration:       1500 * time.Millisecond,
		Seed:           6,
		Check:          true,
	})
	if res.CheckErr != nil {
		t.Fatalf("PSMR violation: %v", res.CheckErr)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	t.Logf("2-shard tempo: %d ops, %.0f ops/s, mean %v", res.Completed, res.Throughput, res.All.Mean())
}

// TestDeterminism: same seed, same result.
func TestDeterminism(t *testing.T) {
	topo := topology.EC2(1)
	run := func() (uint64, time.Duration) {
		res := Run(Config{
			Topo:           topo,
			NewReplica:     tempoReplica(topo),
			Workload:       workload.NewMicrobench(0.1, 16, rand.New(rand.NewSource(9))),
			ClientsPerSite: 3,
			Warmup:         100 * time.Millisecond,
			Duration:       500 * time.Millisecond,
			Seed:           9,
		})
		return res.Completed, res.All.Mean()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", c1, m1, c2, m2)
	}
}

func TestJanusStyleInSim(t *testing.T) {
	topo := topology.EC2Sharded(2)
	res := Run(Config{
		Topo: topo,
		NewReplica: func(id ids.ProcessID) proto.Replica {
			return epaxos.New(id, topo, epaxos.Config{Variant: epaxos.VariantAtlas, NonGenuineCommit: true})
		},
		Workload:       workload.NewYCSBT(1000, 0.5, 0.5, rand.New(rand.NewSource(7))),
		ClientsPerSite: 3,
		ClientSites:    []ids.SiteID{0, 1, 2},
		Warmup:         300 * time.Millisecond,
		Duration:       1200 * time.Millisecond,
		Seed:           7,
		Check:          true,
	})
	if res.CheckErr != nil {
		t.Fatalf("PSMR violation: %v", res.CheckErr)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func BenchmarkSimTempoThroughput(b *testing.B) {
	topo := topology.EC2(1)
	for i := 0; i < b.N; i++ {
		Run(Config{
			Topo:           topo,
			NewReplica:     tempoReplica(topo),
			Workload:       workload.NewMicrobench(0.02, 100, rand.New(rand.NewSource(1))),
			ClientsPerSite: 8,
			Warmup:         100 * time.Millisecond,
			Duration:       500 * time.Millisecond,
			Seed:           1,
		})
	}
}
