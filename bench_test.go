// Package tempo_test hosts the repository-level benchmarks: one
// testing.B entry per table and figure of the paper's evaluation
// (backed by internal/bench; see EXPERIMENTS.md for full-scale output
// and the paper-vs-measured comparison), plus micro-benchmarks of the
// protocol hot paths.
package tempo_test

import (
	"math/rand"
	"testing"
	"time"

	"tempo/internal/bench"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/promise"
	"tempo/internal/proto"
	"tempo/internal/sim"
	"tempo/internal/tempo"
	"tempo/internal/topology"
	"tempo/internal/workload"
)

// benchOpts shrinks the experiments so `go test -bench .` stays fast; use
// cmd/bench for full-scale runs.
func benchOpts() bench.Options {
	return bench.Options{
		Scale:    256,
		Duration: 500 * time.Millisecond,
		Warmup:   200 * time.Millisecond,
		Seed:     1,
	}
}

// BenchmarkFig5PerSiteLatency regenerates Figure 5 (per-site latency
// fairness across Tempo/Atlas/FPaxos/Caesar).
func BenchmarkFig5PerSiteLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig5(benchOpts())
		if i == 0 {
			for _, r := range rows {
				if r.Protocol == "tempo f=1" {
					b.ReportMetric(float64(r.Average)/1e6, "tempo-avg-ms")
				}
			}
		}
	}
}

// BenchmarkFig6TailLatency regenerates Figure 6 (latency percentiles).
func BenchmarkFig6TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig6(benchOpts())
		if i == 0 {
			for _, r := range rows {
				if r.Protocol == "tempo f=1" && r.ClientsPerSite == 512 {
					b.ReportMetric(float64(r.P999)/1e6, "tempo-p99.9-ms")
				}
			}
		}
	}
}

// BenchmarkFig7ThroughputSweep regenerates Figure 7 (throughput/latency
// under increasing load with the CPU/NIC model).
func BenchmarkFig7ThroughputSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := bench.Fig7(benchOpts())
		if i == 0 {
			b.ReportMetric(bench.MaxThroughput(points, "tempo f=1", 0.02), "tempo-maxops")
			b.ReportMetric(bench.MaxThroughput(points, "fpaxos f=1", 0.02), "fpaxos-maxops")
		}
	}
}

// BenchmarkFig8Batching regenerates Figure 8 (batching on/off).
func BenchmarkFig8Batching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig8(benchOpts())
		if i == 0 {
			r := bench.Find(rows, "fpaxos f=1 batched", true, 256)
			b.ReportMetric(r.MaxTput, "fpaxos-batched-256B-ops")
		}
	}
}

// BenchmarkFig9PartialReplication regenerates Figure 9 (YCSB+T over
// 2/4/6 shards, Tempo vs Janus*).
func BenchmarkFig9PartialReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig9(benchOpts())
		if i == 0 {
			b.ReportMetric(bench.FindFig9(rows, "tempo f=1", 6, 0.7, 0.5), "tempo-6shard-ops")
			b.ReportMetric(bench.FindFig9(rows, "janus*", 6, 0.7, 0.5), "janus-w50-6shard-ops")
		}
	}
}

// BenchmarkAblationMBump measures the Figure 4 "faster stability"
// optimization on/off.
func BenchmarkAblationMBump(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationMBump(benchOpts())
	}
}

// --- micro-benchmarks of the protocol hot paths ---
//
// The three named loops below (codec, tracker stability, process steady
// state) are shared with `bench -exp micro`, which emits them to
// BENCH_micro.json so successive PRs track the trajectory.

// BenchmarkCodec measures encode+decode of a fast-path message mix with
// the wire codec. The encoded-bytes metric reports the wire size.
func BenchmarkCodec(b *testing.B) {
	b.Run("binary/encode", bench.CodecEncodeLoop)
	b.Run("binary/decode", bench.CodecDecodeLoop)
}

// BenchmarkTrackerStable measures the Theorem 1 stability watermark in
// the advanceExecution pattern: a read per step, occasional insertions.
func BenchmarkTrackerStable(b *testing.B) {
	bench.TrackerStableLoop(b)
}

// BenchmarkProcessSteadyState measures the full per-command protocol
// cost (submit through execution and GC) across 5 replicas, with
// promise gossip flowing. The allocs/op figure is the headline number
// of the hot-path overhaul.
func BenchmarkProcessSteadyState(b *testing.B) {
	bench.SteadyStateLoop(b)
}

// BenchmarkClientRoundTrip measures closed-loop client throughput over
// a real loopback cluster through the pipelined session with 64
// requests in flight.
func BenchmarkClientRoundTrip(b *testing.B) {
	b.Run("pipelined-64", bench.ClientPipelinedRoundTripLoop)
}

// BenchmarkTempoCommitPath measures the in-memory cost of one full
// commit+execute round (Table 1's machinery) across 5 replicas.
func BenchmarkTempoCommitPath(b *testing.B) {
	topo := topology.EC2(1)
	reps := make(map[ids.ProcessID]proto.Replica)
	for _, pi := range topo.Processes() {
		reps[pi.ID] = tempo.New(pi.ID, topo, tempo.Config{RecoveryTimeout: time.Hour})
	}
	coordinator := topo.ProcessAt(0, 0)
	type env struct {
		from, to ids.ProcessID
		msg      proto.Message
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd := command.NewPut(ids.Dot{Source: coordinator, Seq: uint64(i + 1)}, "k", nil)
		queue := []env{}
		push := func(from ids.ProcessID, acts []proto.Action) {
			for _, a := range acts {
				for _, to := range a.To {
					queue = append(queue, env{from, to, a.Msg})
				}
			}
		}
		push(coordinator, reps[coordinator].Submit(cmd))
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			push(e.to, reps[e.to].Handle(e.from, e.msg))
		}
	}
}

// BenchmarkPromiseTrackerStability measures Theorem 1's stability
// computation over a populated tracker.
func BenchmarkPromiseTrackerStability(b *testing.B) {
	tr := promise.NewTracker(5)
	for rank := ids.Rank(1); rank <= 5; rank++ {
		for t := uint64(1); t <= 10000; t += 2 {
			tr.AddDetached(rank, t, t)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Stable()
	}
}

// BenchmarkSimulatorEventRate measures raw simulator throughput
// (events/sec) on a standard Tempo run.
func BenchmarkSimulatorEventRate(b *testing.B) {
	topo := topology.EC2(1)
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{
			Topo: topo,
			NewReplica: func(id ids.ProcessID) proto.Replica {
				return tempo.New(id, topo, tempo.Config{RecoveryTimeout: time.Hour})
			},
			Workload:       workload.NewMicrobench(0.02, 100, rand.New(rand.NewSource(int64(i)))),
			ClientsPerSite: 4,
			Warmup:         100 * time.Millisecond,
			Duration:       400 * time.Millisecond,
			Seed:           int64(i),
		})
	}
}

// BenchmarkZipfian measures the YCSB zipfian sampler.
func BenchmarkZipfian(b *testing.B) {
	z := workload.NewZipfian(1_000_000, 0.7)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(rng)
	}
}
