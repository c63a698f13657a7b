package main

import "time"

// Spec is one named workload: the deployment it boots, the traffic it
// offers, and why it exists. The names are a contract with
// BENCHMARK.json and with later issues, which cite them.
type Spec struct {
	// Name is the workload's name in BENCHMARK.json.
	Name string
	// Why is the one-line reason the workload exists.
	Why string
	// Shards is the number of shards; more than one boots psmr groups
	// (tempo-server -sites), one boots standalone nodes (-peers).
	Shards int
	// Durable gives every replica a data directory (WAL + snapshots at
	// the shipped 2 ms fsync interval).
	Durable bool
	// Profile names the chaos link profile shaping inter-site traffic;
	// empty means no shaper at all.
	Profile string
	// Inflight is the closed-loop pipeline depth per session; zero
	// selects the open loop at Rate.
	Inflight int
	// Rate is the open-loop send rate per session, in ops per second.
	Rate int
	// Keys is the key-space size.
	Keys int
	// Theta, when positive, draws keys Zipf(theta) instead of uniformly.
	Theta float64
	// ValueBytes is the size of every put's value.
	ValueBytes int
	// GetShare is the share of commands that read instead of write.
	GetShare float64
	// CrossShare is the share of commands touching one key in each of
	// the two shards (sharded workloads only).
	CrossShare float64
	// Homes is the site each session prefers; it lists all three, so it
	// can fail over.
	Homes [Sessions]int
	// Crashes, when set, is the fault schedule inside the measure
	// window. Needs a Profile, whose shaper the blackout uses.
	Crashes []Crash
}

// Sessions is the number of client sessions, driver goroutines and
// connections per shard: the machine has two cores, and one process
// generates all the load.
const Sessions = 2

// Sites is the number of sites in every deployment (f = 1).
const Sites = 3

// Slices is how many equal slices the measure window is cut into for
// the detail line's timeline, where a snapshot rotation, a crash or a
// recovery shows as an event. The gated metrics cover the whole window.
const Slices = 10

// OpDeadline is how long an operation may take, from the moment it was
// sent (closed loop) or due (open loop), before it counts as failed.
const OpDeadline = 2 * time.Second

// Crash is one crash-restart of a site: at share Close of the measure
// window the site is blacked out for faultBlackout and then closed
// abruptly; at share Restart it is started again on its data directory.
type Crash struct {
	Site           int
	Close, Restart float64
}

// faultBlackout is how long a victim goes unanswered before it is
// closed. At this workload's rate a bare close finds a command half
// way through its commit round only some of the time, and a run's tail
// then depends on a coin toss; the blackout leaves the victim's last
// few dozen commands proposed at its quorum but never committed, so
// every crash exercises recovery of in-flight commands, as a process
// killed under load would.
const faultBlackout = 20 * time.Millisecond

// Specs lists the four workloads in the order they run.
var Specs = []Spec{
	{
		Name:   "lan.sat",
		Why:    "CPU-bound and conflict-free: client, batcher/executor, wire codec and the tempo step do all the work; wal, psmr and link delay do none",
		Shards: 1, Inflight: 64, Keys: 100_000, ValueBytes: 100, Homes: [Sessions]int{0, 1},
	},
	{
		Name:   "ring.conflict",
		Why:    "EC2 ring delays, Zipf 0.99 on 1024 keys: latency is set by quorum delay and the stability wait, so hot-path CPU changes must not move it",
		Shards: 1, Durable: true, Profile: "ring", Inflight: 32, Keys: 1024, Theta: 0.99, ValueBytes: 100, GetShare: 0.5, Homes: [Sessions]int{0, 1},
	},
	{
		Name:   "shard2.mix",
		Why:    "2 psmr shards, durable, reads beside 1 KB writes, 10% cross-shard: shows the cost a lan.sat gain pays in WAL, snapshots and cross-shard watches",
		Shards: 2, Durable: true, Inflight: 64, Keys: 100_000, ValueBytes: 1024, GetShare: 0.5, CrossShare: 0.1, Homes: [Sessions]int{0, 1},
	},
	{
		Name:   "lan.open.crash",
		Why:    "open loop at 1-2% of saturation with two crash-restarts: the bare software path of one command, and availability as a client sees it",
		Shards: 1, Durable: true, Profile: "lan", Rate: 2000, Keys: 100_000, ValueBytes: 100, Homes: [Sessions]int{0, 2},
		Crashes: []Crash{{Site: 2, Close: 8.0 / 30, Restart: 12.0 / 30}, {Site: 2, Close: 18.0 / 30, Restart: 22.0 / 30}},
	},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// MetricDecl declares one metric: its name, unit and direction, and for
// end-to-end metrics the regression bound (a share of the parent's
// median).
type MetricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// EndToEnd lists the gated metrics, emitted by every untraced run on
// every workload. BENCHMARK.json repeats this list; a test keeps the
// two equal. The driver's schema has one bound per metric for all
// workloads and caps it at 0.25. Every bound sits at that cap: the
// widest run-to-run spreads seen when they were set (BOUNDS.md) were
// 8-17 % of the median, on the shared two-core VM this runs on, and a
// bound is to be at least three times the spread.
var EndToEnd = []MetricDecl{
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Tracked lists the diagnostics of an untraced run that -sets and
// -compare print beside the gated metrics, without a verdict: numbers
// later issues cite, which do not repeat well enough on every workload
// to gate (BOUNDS.md).
var Tracked = []MetricDecl{
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "stall_ms", Unit: "ms", Better: "lower"},
}

// PerLayer lists the per-layer metrics, emitted by every traced run.
// A metric a workload cannot exercise (wal.* without a data directory,
// psmr.* on one shard, recovery.* without faults) reads 0 there.
var PerLayer = []MetricDecl{
	{Name: "client.codec_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "codec.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "codec.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "tempo.step_us_per_cmd", Unit: "us", Better: "lower"},
	{Name: "tempo.allocs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "tempo.msgs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "tempo.fast_path_share", Unit: "share", Better: "higher"},
	{Name: "promise.stable_ns", Unit: "ns", Better: "lower"},
	{Name: "promise.add_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "cluster.cmds_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.exec_queue_depth_p50", Unit: "count", Better: "lower"},
	{Name: "cluster.exec_queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "cluster.pending", Unit: "count", Better: "lower"},
	{Name: "cluster.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.order_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.order_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.reply_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.reply_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.follower_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.follower_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.appendsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.rotations", Unit: "count", Better: "lower"},
	{Name: "kvstore.apply_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kvstore.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "psmr.cross_share", Unit: "share", Better: "lower"},
	{Name: "psmr.watches_per_cross", Unit: "count", Better: "lower"},
	{Name: "psmr.cross_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "psmr.single_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.failover_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.catchup_s", Unit: "s", Better: "lower"},
	{Name: "trace.client_do_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.reconcile_pct", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}
