// Command bench regenerates the paper's evaluation tables and figures on
// the discrete-event simulator.
//
// Usage:
//
//	bench -exp fig5                # one experiment
//	bench -exp all -scale 16       # everything, at 1/16 of paper load
//	bench -exp fig7 -scale 4 -duration 4s
//	bench -exp micro               # hot-path micro-benchmarks -> BENCH_micro.json
//	bench -exp cluster             # loaded TCP cluster sweep -> BENCH_cluster.json
//	bench -exp fault               # kill-restart a durable replica -> BENCH_fault.json
//	bench -exp shard               # sharded TCP clusters 1..4 shards -> BENCH_shard.json
//	bench -exp wan                 # durable 3-region clusters under WAN profiles -> BENCH_wan.json
//	bench -exp chaos               # vulture soak under partition+SIGKILL+slow-fsync -> BENCH_chaos.json
//	bench -exp reconfig            # rolling replacement of every site under load -> BENCH_reconfig.json
//
// Experiments: fig5, fig6, fig7, fig8, fig9, ablation-mbump,
// ablation-piggyback, ablation-f, micro, cluster, fault, shard, wan,
// chaos, reconfig, all. The baseline protocols (Atlas, EPaxos, FPaxos,
// Caesar, Janus*) run in the simulator experiments only.
// See EXPERIMENTS.md for the paper-vs-reproduction comparison. The
// micro experiment writes its results to -microout (default
// BENCH_micro.json); the cluster experiment — a real loopback cluster
// driven by concurrent pipelined sessions across server-side batching
// configs — writes -clusterout (default BENCH_cluster.json); the fault
// experiment — real durable replica processes, one SIGKILL'd and
// restarted under load — writes -faultout (default BENCH_fault.json);
// the shard experiment — real durable partial-replication deployments
// (psmr groups) swept over shard counts and cross-shard ratios — writes
// -shardout (default BENCH_shard.json); the wan experiment — durable
// 3-region deployments link-shaped by the named chaos profiles (paper
// EC2 ring, asymmetric transatlantic, flapping link, slow-fsync site) —
// writes -wanout (default BENCH_wan.json); the chaos experiment — the
// consistency vulture soaking a shaped cluster through a partition, a
// SIGKILL+restart and a slow-fsync replica, exiting non-zero on any
// violation — writes -chaosout (default BENCH_chaos.json); the reconfig
// experiment — a rolling replacement of all three sites of a durable
// psmr deployment (one graceful drain, two SIGKILL + fence
// replacements) under load with the vulture attached, exiting non-zero
// on any violation or when availability outside the takeover windows
// drops below 0.75x steady — writes -reconfigout (default
// BENCH_reconfig.json). Successive PRs track the hot-path, failure-path
// and scaling trajectory through these files.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tempo/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig5..fig9, ablation-*, micro, cluster, fault, all)")
	scale := flag.Int("scale", 16, "divide the paper's client counts by this factor")
	duration := flag.Duration("duration", 2*time.Second, "measured simulated time per run")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "simulated warmup before measurement")
	seed := flag.Int64("seed", 1, "random seed")
	microOut := flag.String("microout", "BENCH_micro.json", "output path for the micro experiment")
	clusterOut := flag.String("clusterout", "BENCH_cluster.json", "output path for the cluster experiment")
	clusterDur := flag.Duration("clusterdur", 2*time.Second, "measured wall-clock time per cluster load point")
	clusterWarm := flag.Duration("clusterwarm", 500*time.Millisecond, "cluster warmup before measurement")
	faultOut := flag.String("faultout", "BENCH_fault.json", "output path for the fault experiment")
	faultPhase := flag.Duration("faultphase", 3*time.Second, "per-phase duration of the fault experiment (steady, outage, post-restart)")
	shardOut := flag.String("shardout", "BENCH_shard.json", "output path for the shard experiment")
	shardDur := flag.Duration("sharddur", 2*time.Second, "measured wall-clock time per shard load point")
	shardWarm := flag.Duration("shardwarm", 500*time.Millisecond, "shard-experiment warmup before measurement")
	shardMax := flag.Int("shardmax", 4, "largest shard count the shard experiment sweeps")
	wanOut := flag.String("wanout", "BENCH_wan.json", "output path for the WAN experiment")
	wanDur := flag.Duration("wandur", 4*time.Second, "measured wall-clock time per WAN profile")
	wanWarm := flag.Duration("wanwarm", 1*time.Second, "WAN-experiment warmup before measurement")
	chaosOut := flag.String("chaosout", "BENCH_chaos.json", "output path for the chaos soak")
	chaosDur := flag.Duration("chaosdur", 60*time.Second, "total chaos-soak duration, fault schedule included")
	chaosProfile := flag.String("chaosprofile", "metro", "chaos link profile the soak replicas run under")
	reconfigOut := flag.String("reconfigout", "BENCH_reconfig.json", "output path for the reconfig experiment")
	reconfigPhase := flag.Duration("reconfigphase", 3*time.Second, "steady-state measurement length of the reconfig experiment")
	reconfigAvail := flag.Float64("reconfigavail", 0.75, "reconfig availability gate (avail/steady); negative disables the gate, violations stay fatal")

	// Node-runner mode: the fault and chaos experiments re-exec this
	// binary as the cluster's replica processes, so a SIGKILL is a real
	// process death.
	faultNode := flag.Bool("fault-node", false, "internal: run as one durable replica of the fault experiment")
	chaosNode := flag.Bool("chaos-node", false, "internal: run as one durable shaped replica of the chaos soak")
	reconfigNode := flag.Bool("reconfig-node", false, "internal: run as one durable psmr site of the reconfig experiment")
	nodeID := flag.Int("node-id", 0, "internal: node-runner replica id")
	nodeSite := flag.Int("node-site", 0, "internal: reconfig-node site id")
	nodeAddr := flag.String("node-addr", "", "internal: reconfig-node advertised address (join mode)")
	nodeJoin := flag.String("node-join", "", "internal: reconfig-node join seed replica address")
	nodePeers := flag.String("node-peers", "", "internal: node-runner peer addresses")
	nodeDir := flag.String("node-dir", "", "internal: node-runner data directory")
	nodeFsync := flag.Duration("node-fsync", 2*time.Millisecond, "internal: node-runner WAL fsync interval")
	nodeFsyncDelay := flag.Duration("node-fsync-delay", 0, "internal: chaos-node per-fsync stall (slow-disk fault)")
	nodeProfile := flag.String("node-profile", "lan", "internal: chaos-node link profile")
	flag.Parse()

	if *faultNode {
		if err := bench.RunFaultNode(*nodeID, *nodePeers, *nodeDir, *nodeFsync); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *chaosNode {
		if err := bench.RunChaosNode(*nodeID, *nodePeers, *nodeDir, *nodeFsync, *nodeFsyncDelay, *nodeProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *reconfigNode {
		if err := bench.RunReconfigNode(*nodeSite, *nodePeers, *nodeAddr, *nodeJoin, *nodeDir, *nodeFsync); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	o := bench.Options{
		Scale:    *scale,
		Duration: *duration,
		Warmup:   *warmup,
		Seed:     *seed,
		Out:      os.Stdout,
	}

	run := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	runMicro := func() {
		results := bench.RunMicro(os.Stdout)
		if err := bench.WriteMicroJSON(*microOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *microOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *microOut)
	}

	runCluster := func() {
		results, err := bench.RunCluster(os.Stdout, bench.DefaultClusterConfigs(), *clusterDur, *clusterWarm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster experiment: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteClusterJSON(*clusterOut, results, *clusterDur); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *clusterOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *clusterOut)
	}

	runFault := func() {
		res, err := bench.RunFault(os.Stdout, bench.FaultOptions{Phase: *faultPhase})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault experiment: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteFaultJSON(*faultOut, res); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *faultOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *faultOut)
	}

	runShard := func() {
		results, err := bench.RunShard(os.Stdout, bench.DefaultShardConfigs(*shardMax), *shardDur, *shardWarm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shard experiment: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteShardJSON(*shardOut, results, *shardDur); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *shardOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *shardOut)
	}

	runWAN := func() {
		results, err := bench.RunWAN(os.Stdout, bench.DefaultWANConfigs(), *wanDur, *wanWarm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wan experiment: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteWANJSON(*wanOut, results, *wanDur); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *wanOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *wanOut)
	}

	runChaos := func() {
		res, err := bench.RunChaos(os.Stdout, bench.ChaosOptions{
			Profile:  *chaosProfile,
			Duration: *chaosDur,
		})
		if werr := bench.WriteChaosJSON(*chaosOut, res); werr != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *chaosOut, werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *chaosOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos soak: %v\n", err)
			os.Exit(1)
		}
	}

	runReconfig := func() {
		res, err := bench.RunReconfig(os.Stdout, bench.ReconfigOptions{Phase: *reconfigPhase, AvailGate: *reconfigAvail})
		if werr := bench.WriteReconfigJSON(*reconfigOut, res); werr != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *reconfigOut, werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *reconfigOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reconfig experiment: %v\n", err)
			os.Exit(1)
		}
	}

	experiments := map[string]func(){
		"fig5":               func() { bench.Fig5(o) },
		"fig6":               func() { bench.Fig6(o) },
		"fig7":               func() { bench.Fig7(o) },
		"fig8":               func() { bench.Fig8(o) },
		"fig9":               func() { bench.Fig9(o) },
		"ablation-mbump":     func() { bench.AblationMBump(o) },
		"ablation-piggyback": func() { bench.AblationPiggyback(o) },
		"ablation-f":         func() { bench.AblationFaultTolerance(o) },
		"micro":              runMicro,
		"cluster":            runCluster,
		"fault":              runFault,
		"shard":              runShard,
		"wan":                runWAN,
		"chaos":              runChaos,
		"reconfig":           runReconfig,
	}
	order := []string{"fig5", "fig6", "fig7", "fig8", "fig9",
		"ablation-mbump", "ablation-piggyback", "ablation-f", "micro", "cluster", "fault", "shard", "wan", "chaos", "reconfig"}

	if *exp == "all" {
		for _, name := range order {
			run(name, experiments[name])
		}
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v, all\n", *exp, order)
		os.Exit(2)
	}
	run(*exp, fn)
}
