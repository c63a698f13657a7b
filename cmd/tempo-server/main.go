// Command tempo-server runs Tempo replicas as a networked process.
//
// # Single-shard mode (-peers)
//
// One replica of a full-replication cluster:
//
//	tempo-server -id 1 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	tempo-server -id 2 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	tempo-server -id 3 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	tempo-client -servers 127.0.0.1:7001,127.0.0.1:7002 put greeting hello
//
// The i-th entry of -peers is the address of the replica with -id i.
// Each replica serves peers and clients on the same port: peer links,
// the pipelined client protocol (the top-level client package), the
// state-sync protocol used by restarting peers and the configuration
// protocol are told apart per connection by a 4-byte magic (see
// docs/ARCHITECTURE.md "Wire dialects").
//
// # Sharded mode (-sites)
//
// One server process per site, hosting one replica for every shard the
// site replicates (partial replication, internal/psmr). A 2-shard
// deployment across three sites:
//
//	tempo-server -site 0 -sites a:7001,b:7001,c:7001 -shards 2 &   # on a
//	tempo-server -site 1 -sites a:7001,b:7001,c:7001 -shards 2 &   # on b
//	tempo-server -site 2 -sites a:7001,b:7001,c:7001 -shards 2 &   # on c
//
// All of a site's shards share one listener and one set of inter-site
// links; cross-shard commands are first-class (the client package
// merges per-shard results). -shard-sites restricts which sites
// replicate each shard, e.g. "0,1,2;1,2,3" for two shards over four
// sites; by default every site replicates every shard.
//
// With -data-dir the replicas are durable: applied commands go to a
// write-ahead log (fsync-batched per -fsync, one log per shard in
// sharded mode), periodic snapshots bound replay length
// (-snapshot-every), and a killed process restarted on the same
// directory replays its state, catches up from its peers and rejoins.
// With -metrics-addr the server reports serving counters — ops/s, mean
// batch size, executor queue depth, per-shard submit counts — as JSON.
//
// With -chaos-profile the server's outgoing inter-replica links run
// through a traffic shaper configured from a named WAN profile (lan,
// metro, ring, transatlantic, flap, slow-fsync — internal/chaos),
// adding per-direction delay, jitter, bandwidth and loss; the profile's
// standing faults (link flapping, per-site fsync stalls) start with the
// server, and -chaos-fsync-delay adds an explicit WAL fsync stall on
// top. When -metrics-addr is set the shaper is also runtime-controllable
// over HTTP: GET /chaos shows the profile and live partition state, and
// /chaos/cut, /chaos/heal, /chaos/isolate, /chaos/rejoin,
// /chaos/cut-site, /chaos/heal-site, /chaos/isolate-site and
// /chaos/heal-all inject and lift partitions on this server's outgoing
// links without restarting it.
// See docs/OPERATIONS.md for tuning, the crash-recovery runbook and the
// chaos runbook.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tempo/internal/chaos"
	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/membership"
	"tempo/internal/metrics"
	"tempo/internal/psmr"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

func main() {
	id := flag.Int("id", 1, "single-shard mode: replica id (1-based index into -peers)")
	peers := flag.String("peers", "", "single-shard mode: comma-separated replica addresses, in id order")
	site := flag.Int("site", 0, "sharded mode: this server's site (0-based index into -sites)")
	sites := flag.String("sites", "", "sharded mode: comma-separated site addresses; hosts one replica per locally replicated shard")
	shards := flag.Int("shards", 1, "sharded mode: number of shards")
	shardSites := flag.String("shard-sites", "", "sharded mode: per-shard site lists, e.g. \"0,1,2;1,2,3\" (default: every site replicates every shard)")
	joinSeed := flag.String("join", "", "sharded mode: join a running deployment instead of bootstrapping one — fetch the configuration from this seed replica address, take over this site's slot (which must be Dead or Left) at a new incarnation, catch up from peers, then flip Active")
	f := flag.Int("f", 1, "tolerated failures")
	batchOps := flag.Int("batch-ops", cluster.DefaultBatchOps, "max client ops coalesced into one command (<=1 disables batching)")
	batchWindow := flag.Duration("batch-window", cluster.DefaultBatchWindow, "submit-batch flush window (<=0 disables batching)")
	batchPace := flag.Duration("batch-pace", 0, "min interval between batch flushes per shard (bounds each shard's consensus round rate; 0 disables pacing)")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof (e.g. 127.0.0.1:6060); empty disables")
	metricsAddr := flag.String("metrics-addr", "", "listen address for the JSON metrics endpoint (e.g. 127.0.0.1:9090); empty disables")
	dataDir := flag.String("data-dir", "", "data directory for WAL+snapshot persistence; empty runs in-memory (a crash loses the replica's local state)")
	fsync := flag.Duration("fsync", 2*time.Millisecond, "WAL fsync batching interval; 0 makes every command durable before its reply")
	snapshotEvery := flag.Int("snapshot-every", cluster.DefaultSnapshotEvery, "applied commands between kvstore snapshots (bounds WAL replay length)")
	chaosProfile := flag.String("chaos-profile", "", "chaos link profile shaping this server's outgoing inter-replica traffic (lan, metro, ring, transatlantic, flap, slow-fsync); empty disables")
	chaosFsyncDelay := flag.Duration("chaos-fsync-delay", 0, "stall every WAL fsync by this much (slow-disk fault injection; adds to the profile's slow-fsync site, needs -data-dir)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank
			// import above.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
		log.Printf("pprof serving on http://%s/debug/pprof/", *pprofAddr)
	}

	var nodes []*cluster.Node
	var closeAll func()
	var ctl *chaosCtl
	var group *psmr.Group
	if *sites != "" {
		nodes, closeAll, ctl, group = startSharded(*site, *sites, *shards, *shardSites, *f,
			*batchOps, *batchWindow, *batchPace, *dataDir, *fsync, *snapshotEvery,
			*chaosProfile, *chaosFsyncDelay, *joinSeed)
	} else {
		if *joinSeed != "" {
			log.Fatal("-join requires sharded mode (-sites)")
		}
		nodes, closeAll, ctl = startSingleShard(*id, *peers, *f,
			*batchOps, *batchWindow, *batchPace, *dataDir, *fsync, *snapshotEvery,
			*chaosProfile, *chaosFsyncDelay)
	}

	if *metricsAddr != "" {
		serveMetrics(*metricsAddr, nodes, ctl, group)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	closeAll()
}

// chaosCtl carries a server's chaos state: the shaper its outgoing
// inter-replica links run through, for the runtime /chaos endpoints.
type chaosCtl struct {
	profile string
	sh      *cluster.Shaper
	topo    *topology.Topology
}

// newChaosCtl builds the server's shaper from the named profile (nil
// ctl when chaos is disabled) and starts the profile's standing faults.
// It returns the ctl, the effective WAL fsync stall for this site, and
// a stop function folded into the server's shutdown.
func newChaosCtl(profile string, topo *topology.Topology, site ids.SiteID, fsyncDelay time.Duration) (*chaosCtl, time.Duration, func()) {
	if profile == "" {
		return nil, fsyncDelay, func() {}
	}
	p, err := chaos.Lookup(profile)
	if err != nil {
		log.Fatal(err)
	}
	sh := chaos.NewShaper(topo, p)
	stopFaults := p.StartFaults(sh, topo)
	if d := p.FsyncDelayFor(site); d > fsyncDelay {
		fsyncDelay = d
	}
	log.Printf("chaos: profile %q shaping outgoing links (%s)", p.Name, p.Description)
	return &chaosCtl{profile: profile, sh: sh, topo: topo}, fsyncDelay, func() {
		stopFaults()
		sh.Close()
	}
}

// startSingleShard runs one replica of a full-replication cluster (the
// historical mode).
func startSingleShard(id int, peers string, f, batchOps int, batchWindow, batchPace time.Duration,
	dataDir string, fsync time.Duration, snapshotEvery int,
	chaosProfile string, chaosFsyncDelay time.Duration) ([]*cluster.Node, func(), *chaosCtl) {
	addrList := strings.Split(peers, ",")
	if len(addrList) < 3 {
		log.Fatal("need at least 3 peers (-peers a,b,c) or a sharded deployment (-sites)")
	}
	if id < 1 || id > len(addrList) {
		log.Fatalf("-id %d out of range 1..%d", id, len(addrList))
	}

	names := make([]string, len(addrList))
	rtt := make([][]time.Duration, len(addrList))
	for i := range names {
		names[i] = fmt.Sprintf("site-%d", i)
		rtt[i] = make([]time.Duration, len(addrList))
	}
	topo, err := topology.New(topology.Config{
		SiteNames: names, RTT: rtt, NumShards: 1, F: f,
	})
	if err != nil {
		log.Fatal(err)
	}

	addrs := make(map[ids.ProcessID]string, len(addrList))
	for i, a := range addrList {
		addrs[ids.ProcessID(i+1)] = a
	}
	// Each single-shard replica is its own site: site index = id-1.
	ctl, fsyncDelay, stopChaos := newChaosCtl(chaosProfile, topo, ids.SiteID(id-1), chaosFsyncDelay)
	rep := tempo.New(ids.ProcessID(id), topo, tempo.Config{})
	node := cluster.NewNode(ids.ProcessID(id), rep, addrs)
	node.SetBatch(batchOps, batchWindow)
	if batchPace > 0 {
		node.SetBatchPace(batchPace)
	}
	if ctl != nil {
		node.SetShaper(ctl.sh)
	}
	if dataDir != "" {
		if err := node.SetDurable(cluster.DurableConfig{
			Dir:           dataDir,
			SyncInterval:  durableSync(fsync),
			SnapshotEvery: snapshotEvery,
			FsyncDelay:    fsyncDelay,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	mode := "in-memory"
	if dataDir != "" {
		mode = "data-dir=" + dataDir
	}
	log.Printf("tempo replica %d serving on %s (r=%d, f=%d, %s)", id, node.Addr(), len(addrList), f, mode)
	return []*cluster.Node{node}, func() {
		node.Close()
		stopChaos()
	}, ctl
}

// startSharded runs one site of a partial-replication deployment: one
// hosted replica per shard the site replicates, behind one listener.
// With joinSeed the site joins a running deployment (psmr.Join) instead
// of bootstrapping one.
func startSharded(site int, sites string, shards int, shardSitesSpec string, f, batchOps int,
	batchWindow, batchPace time.Duration, dataDir string, fsync time.Duration, snapshotEvery int,
	chaosProfile string, chaosFsyncDelay time.Duration, joinSeed string) ([]*cluster.Node, func(), *chaosCtl, *psmr.Group) {
	addrList := strings.Split(sites, ",")
	if site < 0 || site >= len(addrList) {
		log.Fatalf("-site %d out of range 0..%d", site, len(addrList)-1)
	}
	names := make([]string, len(addrList))
	rtt := make([][]time.Duration, len(addrList))
	siteAddrs := make(map[ids.SiteID]string, len(addrList))
	for i, a := range addrList {
		names[i] = fmt.Sprintf("site-%d", i)
		rtt[i] = make([]time.Duration, len(addrList))
		siteAddrs[ids.SiteID(i)] = a
	}
	var shardSites [][]int
	if shardSitesSpec != "" {
		var err error
		if shardSites, err = parseShardSites(shardSitesSpec, shards, len(addrList)); err != nil {
			log.Fatal(err)
		}
	}
	topo, err := topology.New(topology.Config{
		SiteNames: names, RTT: rtt, NumShards: shards, F: f, ShardSites: shardSites,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctl, fsyncDelay, stopChaos := newChaosCtl(chaosProfile, topo, ids.SiteID(site), chaosFsyncDelay)
	cfg := psmr.Config{
		Topo:          topo,
		Site:          ids.SiteID(site),
		SiteAddrs:     siteAddrs,
		BatchOps:      batchOps,
		BatchWindow:   batchWindow,
		BatchPace:     batchPace,
		DataDir:       dataDir,
		FsyncInterval: durableSync(fsync),
		SnapshotEvery: snapshotEvery,
		FsyncDelay:    fsyncDelay,
	}
	if ctl != nil {
		cfg.Shaper = ctl.sh
	}
	var g *psmr.Group
	if joinSeed != "" {
		g, err = psmr.Join(cfg, joinSeed, 0)
	} else {
		g, err = psmr.Start(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	mode := "in-memory"
	if dataDir != "" {
		mode = "data-dir=" + dataDir
	}
	log.Printf("tempo site %d serving %d shard(s) on %s (sites=%d, f=%d, epoch=%d, %s)",
		site, len(g.Nodes()), g.Addr(), len(addrList), f, g.Epoch(), mode)
	return g.Nodes(), func() {
		g.Close()
		stopChaos()
	}, ctl, g
}

// durableSync maps the -fsync flag onto DurableConfig.SyncInterval
// semantics (flag 0 = "fsync every append" = config -1).
func durableSync(fsync time.Duration) time.Duration {
	if fsync == 0 {
		return -1
	}
	return fsync
}

// parseShardSites parses "0,1,2;1,2,3": one comma-separated site-index
// list per shard, semicolon-separated.
func parseShardSites(spec string, shards, sites int) ([][]int, error) {
	parts := strings.Split(spec, ";")
	if len(parts) != shards {
		return nil, fmt.Errorf("-shard-sites has %d shard entries, want %d", len(parts), shards)
	}
	out := make([][]int, len(parts))
	for i, p := range parts {
		for _, fld := range strings.Split(p, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(fld))
			if err != nil || v < 0 || v >= sites {
				return nil, fmt.Errorf("-shard-sites shard %d: bad site index %q", i, fld)
			}
			out[i] = append(out[i], v)
		}
	}
	return out, nil
}

// serveMetrics exposes the nodes' serving counters as JSON: cumulative
// per-shard counters plus ops/s computed between successive scrapes,
// the membership epoch, per-peer link state, and — on sharded
// deployments — the /membership admin verbs (see mountMembership).
func serveMetrics(addr string, nodes []*cluster.Node, ctl *chaosCtl, group *psmr.Group) {
	start := time.Now()
	rates := metrics.NewRateTracker()
	snapshot := func() any {
		type shardStats struct {
			cluster.Stats
			OpsPerSec     float64                             `json:"ops_per_sec"`
			ReqsPerSec    float64                             `json:"reqs_per_sec"`
			MeanBatchSize float64                             `json:"mean_batch_size"`
			Draining      bool                                `json:"draining"`
			Links         map[ids.ProcessID]cluster.LinkState `json:"links,omitempty"`
		}
		out := struct {
			UptimeSec  float64      `json:"uptime_sec"`
			Epoch      uint64       `json:"epoch"`
			OpsPerSec  float64      `json:"ops_per_sec"`
			ReqsPerSec float64      `json:"reqs_per_sec"`
			Shards     []shardStats `json:"shards"`
		}{UptimeSec: time.Since(start).Seconds()}
		for i, n := range nodes {
			st := n.Stats()
			ss := shardStats{Stats: st, Draining: n.Draining(), Links: n.Links()}
			// Operations vs requests: one multi-op command carries many
			// client ops, so the two rates differ by the mean batch size.
			ss.OpsPerSec = rates.Rate(fmt.Sprintf("ops-%d", i), st.SubmittedOps)
			ss.ReqsPerSec = rates.Rate(fmt.Sprintf("reqs-%d", i), st.CompletedReqs)
			if st.BatchFlushes > 0 {
				ss.MeanBatchSize = float64(st.BatchedOps) / float64(st.BatchFlushes)
			}
			out.OpsPerSec += ss.OpsPerSec
			out.ReqsPerSec += ss.ReqsPerSec
			out.Epoch = max(out.Epoch, n.Epoch())
			out.Shards = append(out.Shards, ss)
		}
		return out
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.JSONHandler(snapshot))
	if ctl != nil {
		mountChaos(mux, ctl)
	}
	if group != nil {
		mountMembership(mux, group)
	}
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("metrics: %v", err)
		}
	}()
	log.Printf("metrics serving on http://%s/metrics", addr)
}

// mountMembership wires the dynamic-membership admin verbs beside
// /metrics (sharded deployments only):
//
//	curl 'host:9090/membership'                    # current config epoch
//	curl 'host:9090/membership/join?site=2&addr=d:7001'  # pre-flight a successor
//	curl 'host:9090/membership/drain'              # gracefully leave (this site)
//	curl 'host:9090/membership/remove?site=2'      # fence a crashed site
//
// drain runs the full graceful departure of THIS site — clients
// re-route, pipelines flush, the slot goes Left — and leaves the
// process running but fenced; terminate it afterwards. remove fences a
// crashed site without drain (the operator asserts it is really gone;
// see docs/OPERATIONS.md). join validates that a slot is ready for a
// successor and replies with the flags the new process must start
// with: the join itself runs at process start (-join), because the
// successor has to bootstrap state before it can serve.
func mountMembership(mux *http.ServeMux, g *psmr.Group) {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	timeoutOf := func(r *http.Request) time.Duration {
		if d, err := time.ParseDuration(r.URL.Query().Get("timeout")); err == nil && d > 0 {
			return d
		}
		return 30 * time.Second
	}
	mux.HandleFunc("/membership", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, g.View().State().Config)
	})
	mux.HandleFunc("/membership/join", func(w http.ResponseWriter, r *http.Request) {
		site, err := strconv.Atoi(r.URL.Query().Get("site"))
		if err != nil || site < 0 {
			http.Error(w, "need ?site=<site>[&addr=<host:port>]", http.StatusBadRequest)
			return
		}
		cfg := g.View().State().Config
		m, ok := cfg.Member(ids.SiteID(site))
		if !ok {
			http.Error(w, fmt.Sprintf("site %d not in the configuration", site), http.StatusBadRequest)
			return
		}
		if m.Status != membership.Dead && m.Status != membership.Left {
			http.Error(w, fmt.Sprintf("site %d is %s at epoch %d; drain or remove it first", site, m.Status, cfg.Epoch), http.StatusConflict)
			return
		}
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			addr = "<host:port>"
		}
		writeJSON(w, struct {
			Epoch       uint64 `json:"epoch"`
			Site        int    `json:"site"`
			Status      string `json:"status"`
			Incarnation uint64 `json:"next_incarnation"`
			Start       string `json:"start"`
		}{cfg.Epoch, site, m.Status.String(), m.Incarnation + 1,
			fmt.Sprintf("tempo-server -site %d -sites ...,%s,... -join <live-replica-addr>", site, addr)})
	})
	mux.HandleFunc("/membership/drain", func(w http.ResponseWriter, r *http.Request) {
		err := g.Leave(timeoutOf(r))
		resp := struct {
			Epoch      uint64     `json:"epoch"`
			Site       ids.SiteID `json:"site"`
			Status     string     `json:"status"`
			DrainError string     `json:"drain_error,omitempty"`
		}{g.Epoch(), g.Site(), "left", ""}
		if err != nil {
			resp.DrainError = err.Error()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/membership/remove", func(w http.ResponseWriter, r *http.Request) {
		site, err := strconv.Atoi(r.URL.Query().Get("site"))
		if err != nil || site < 0 {
			http.Error(w, "need ?site=<site>", http.StatusBadRequest)
			return
		}
		cfg, err := psmr.Remove(g.Addr(), ids.SiteID(site), timeoutOf(r))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, cfg)
	})
}

// mountChaos wires the runtime fault-injection endpoints beside
// /metrics. All take query parameters and reply with the shaper state,
// so a curl both acts and shows the result:
//
//	curl 'host:9090/chaos'                        # profile + live state
//	curl 'host:9090/chaos/cut?a=1&b=3'            # sever 1<->3 (oneway=1: only 1->3)
//	curl 'host:9090/chaos/heal?a=1&b=3'           # restore 1<->3
//	curl 'host:9090/chaos/isolate?p=3'            # sever all of 3's links
//	curl 'host:9090/chaos/rejoin?p=3'             # undo isolate
//	curl 'host:9090/chaos/cut-site?a=0&b=1'       # sever every link between two sites
//	curl 'host:9090/chaos/heal-site?s=1'          # reconnect a site to all others
//	curl 'host:9090/chaos/isolate-site?s=1'       # partition a whole site off
//	curl 'host:9090/chaos/heal-all'               # drop every standing cut
//
// Only this server's outgoing links are controlled: partitioning a
// site both ways means hitting the endpoint on every involved server
// (or using the in-process harness, which shares one shaper).
func mountChaos(mux *http.ServeMux, ctl *chaosCtl) {
	state := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Profile string              `json:"profile"`
			State   cluster.ShaperState `json:"state"`
		}{ctl.profile, ctl.sh.State()})
	}
	pid := func(r *http.Request, key string) (ids.ProcessID, bool) {
		v, err := strconv.Atoi(r.URL.Query().Get(key))
		return ids.ProcessID(v), err == nil && v > 0
	}
	sid := func(r *http.Request, key string) (ids.SiteID, bool) {
		v, err := strconv.Atoi(r.URL.Query().Get(key))
		return ids.SiteID(v), err == nil && v >= 0
	}
	badParams := func(w http.ResponseWriter, msg string) {
		http.Error(w, msg, http.StatusBadRequest)
	}
	mux.HandleFunc("/chaos", func(w http.ResponseWriter, r *http.Request) { state(w) })
	mux.HandleFunc("/chaos/cut", func(w http.ResponseWriter, r *http.Request) {
		a, oka := pid(r, "a")
		b, okb := pid(r, "b")
		if !oka || !okb {
			badParams(w, "need ?a=<pid>&b=<pid>")
			return
		}
		if r.URL.Query().Get("oneway") != "" {
			ctl.sh.CutOneWay(a, b)
		} else {
			ctl.sh.Cut(a, b)
		}
		state(w)
	})
	mux.HandleFunc("/chaos/heal", func(w http.ResponseWriter, r *http.Request) {
		a, oka := pid(r, "a")
		b, okb := pid(r, "b")
		if !oka || !okb {
			badParams(w, "need ?a=<pid>&b=<pid>")
			return
		}
		ctl.sh.Heal(a, b)
		state(w)
	})
	mux.HandleFunc("/chaos/isolate", func(w http.ResponseWriter, r *http.Request) {
		p, ok := pid(r, "p")
		if !ok {
			badParams(w, "need ?p=<pid>")
			return
		}
		ctl.sh.Isolate(p)
		state(w)
	})
	mux.HandleFunc("/chaos/rejoin", func(w http.ResponseWriter, r *http.Request) {
		p, ok := pid(r, "p")
		if !ok {
			badParams(w, "need ?p=<pid>")
			return
		}
		ctl.sh.Rejoin(p)
		state(w)
	})
	mux.HandleFunc("/chaos/cut-site", func(w http.ResponseWriter, r *http.Request) {
		a, oka := sid(r, "a")
		b, okb := sid(r, "b")
		if !oka || !okb {
			badParams(w, "need ?a=<site>&b=<site>")
			return
		}
		chaos.CutSiteLink(ctl.sh, ctl.topo, a, b)
		state(w)
	})
	mux.HandleFunc("/chaos/heal-site", func(w http.ResponseWriter, r *http.Request) {
		s, ok := sid(r, "s")
		if !ok {
			badParams(w, "need ?s=<site>")
			return
		}
		chaos.HealSite(ctl.sh, ctl.topo, s)
		state(w)
	})
	mux.HandleFunc("/chaos/isolate-site", func(w http.ResponseWriter, r *http.Request) {
		s, ok := sid(r, "s")
		if !ok {
			badParams(w, "need ?s=<site>")
			return
		}
		chaos.IsolateSite(ctl.sh, ctl.topo, s)
		state(w)
	})
	mux.HandleFunc("/chaos/heal-all", func(w http.ResponseWriter, r *http.Request) {
		ctl.sh.HealAll()
		state(w)
	})
}
