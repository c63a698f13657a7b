// Package psmr deploys partial state-machine replication over real TCP
// clusters: one server process per site, hosting one Tempo replica for
// every shard that site replicates, behind a single listener and a
// single set of inter-site peer links (cluster.Group).
//
// The topology drives everything: which shards this site replicates,
// who the peer processes are, and how clients route. A cross-shard
// command submitted at any hosted replica is ordered independently by
// each accessed shard, the shard groups exchange stability signals over
// the shared links, and every replica executes it at the maximum
// timestamp across its shards — the paper's Algorithm 3, running over
// TCP instead of the in-process simulator.
//
//	topo := topology.EC2Sharded(4) // or any topology.New(...)
//	g, err := psmr.Start(psmr.Config{
//	    Topo:      topo,
//	    Site:      0,
//	    SiteAddrs: map[ids.SiteID]string{0: ":7001", 1: "b:7001", 2: "c:7001"},
//	})
//
// Clients use the topology-aware client package against ClientAddrs().
package psmr

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/membership"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// Config describes one site's deployment.
type Config struct {
	// Topo is the full deployment topology (required).
	Topo *topology.Topology
	// Site is the site this process runs.
	Site ids.SiteID
	// SiteAddrs maps every site to its server's listen address
	// (required). The local entry is the address to bind.
	SiteAddrs map[ids.SiteID]string
	// Tempo tunes the hosted replicas.
	Tempo tempo.Config
	// BatchOps/BatchWindow tune per-shard submit batching (zero values
	// take the cluster defaults; BatchOps <= 1 or BatchWindow < 0
	// disables batching).
	BatchOps    int
	BatchWindow time.Duration
	// BatchPace, when non-zero, bounds each shard's consensus round
	// rate: at most one batch flush per pace interval per hosted shard,
	// each of at most BatchOps operations (see cluster.Node.SetBatchPace).
	BatchPace time.Duration
	// DataDir, when set, makes every hosted replica durable: each shard
	// persists under DataDir/shard-<id>.
	DataDir string
	// FsyncInterval batches WAL fsyncs (cluster.DurableConfig
	// semantics: 0 takes the default, negative fsyncs every append).
	FsyncInterval time.Duration
	// SnapshotEvery rotates each shard's log after this many applies.
	SnapshotEvery int
	// NoPeerSync skips the startup state-catch-up round (tests only).
	NoPeerSync bool
	// FsyncDelay injects a per-fsync stall into every hosted replica's
	// WAL (the chaos profiles' "slow-fsync site"); zero disables.
	FsyncDelay time.Duration
	// Shaper, when set, interposes WAN emulation and runtime partitions
	// on the site's outgoing inter-process messages (cluster.Shaper).
	// The caller owns it; one shaper may be shared across in-process
	// sites.
	Shaper *cluster.Shaper
	// ExecObserver, when set, is called by each hosted node's executor
	// for every command just before it is applied (instrumentation).
	ExecObserver func(proto.Stable)
	// Membership, when set, is the configuration epoch to start under
	// (a joiner passes the fetched Joining config); nil lifts the
	// static Topo/SiteAddrs wiring into epoch 1. Either way the group
	// and every hosted node share one live membership.View.
	Membership *membership.Config
	// Bootstrap runs a pre-serve state-catch-up round even without a
	// data directory (the join flow's snapshot bootstrap; durable
	// nodes sync inside recovery regardless).
	Bootstrap bool
	// JoinFloors carries a joining replica's successor-safety floors,
	// applied per hosted process before its first protocol step.
	JoinFloors map[ids.ProcessID]Floor
}

// Group is one running site: a cluster.Group plus its hosted nodes
// and the site's live configuration view.
type Group struct {
	cfg   Config
	cg    *cluster.Group
	nodes []*cluster.Node
	view  *membership.View
}

// Start binds the site's listen address and runs the group.
func Start(cfg Config) (*Group, error) {
	addr, ok := cfg.SiteAddrs[cfg.Site]
	if !ok {
		return nil, fmt.Errorf("psmr: no address for site %d", cfg.Site)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("psmr: listen %s: %w", addr, err)
	}
	g, err := StartListener(cfg, ln)
	if err != nil {
		ln.Close()
	}
	return g, err
}

// StartListener runs the site's group on an already-bound listener:
// it builds one Tempo replica and one hosted cluster node per shard the
// site replicates, starts the shared listener (so co-recovering sites
// can answer each other's state-sync requests), recovers each node, and
// opens for client traffic.
func StartListener(cfg Config, ln net.Listener) (*Group, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("psmr: config needs a topology")
	}
	addrs, shardOf, err := ProcessAddrs(cfg.Topo, cfg.SiteAddrs)
	if err != nil {
		return nil, err
	}
	// Every deployment runs under a membership view: the static wiring
	// becomes epoch 1, a joiner starts at its fetched epoch. The
	// latency-aware topology rides along so quorum selection is
	// unaffected.
	mcfg := cfg.Membership
	if mcfg == nil {
		mcfg = membership.FromTopology(cfg.Topo, cfg.SiteAddrs)
	} else if err := mcfg.MatchesTopology(cfg.Topo); err != nil {
		return nil, fmt.Errorf("psmr: membership config does not match the topology: %w", err)
	}
	view, err := membership.NewView(mcfg, cfg.Topo)
	if err != nil {
		return nil, err
	}
	cg := cluster.NewGroup(addrs, shardOf)
	cg.SetMembership(view)
	if cfg.Shaper != nil {
		cg.SetShaper(cfg.Shaper)
	}
	g := &Group{cfg: cfg, cg: cg, view: view}
	for _, pi := range cfg.Topo.Processes() {
		if pi.Site != cfg.Site {
			continue
		}
		rep := tempo.New(pi.ID, cfg.Topo, cfg.Tempo)
		n := cluster.NewNode(pi.ID, rep, addrs)
		// Zero-valued batch fields take the cluster defaults; setting one
		// must not silently zero the other (a zero window would disable
		// batching entirely).
		bo, bw := cfg.BatchOps, cfg.BatchWindow
		if bo == 0 {
			bo = cluster.DefaultBatchOps
		}
		if bw == 0 {
			bw = cluster.DefaultBatchWindow
		}
		n.SetBatch(bo, bw)
		if cfg.BatchPace > 0 {
			n.SetBatchPace(cfg.BatchPace)
		}
		n.SetSyncPeers(cfg.Topo.ShardProcesses(pi.Shard))
		n.SetMembership(view)
		if f, ok := cfg.JoinFloors[pi.ID]; ok {
			n.SetJoinFloor(f.Clock, f.Seq)
		}
		if cfg.ExecObserver != nil {
			n.SetExecObserver(cfg.ExecObserver)
		}
		if cfg.DataDir != "" {
			if err := n.SetDurable(cluster.DurableConfig{
				Dir:           filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%d", pi.Shard)),
				SyncInterval:  cfg.FsyncInterval,
				SnapshotEvery: cfg.SnapshotEvery,
				NoPeerSync:    cfg.NoPeerSync,
				FsyncDelay:    cfg.FsyncDelay,
			}); err != nil {
				return nil, err
			}
		}
		cg.AddNode(n)
		g.nodes = append(g.nodes, n)
	}
	if len(g.nodes) == 0 {
		return nil, fmt.Errorf("psmr: site %d replicates no shard", cfg.Site)
	}
	cg.StartListener(ln)
	// Sequential recovery: each node's state-sync requests go to other
	// sites' groups (already listening, serving sync even mid-recovery),
	// never to a sibling node of this group.
	for _, n := range g.nodes {
		if cfg.Bootstrap && cfg.DataDir == "" {
			n.BootstrapFromPeers()
		}
		if err := n.StartHosted(); err != nil {
			g.Close()
			return nil, err
		}
	}
	cg.SetReady()
	return g, nil
}

// Addr returns the site's bound listen address.
func (g *Group) Addr() string { return g.cg.Addr() }

// Nodes returns the hosted nodes, one per locally replicated shard.
func (g *Group) Nodes() []*cluster.Node { return g.nodes }

// Close shuts the site down: nodes first (queueing shutdown replies for
// pending requests), then the shared listener and links.
func (g *Group) Close() {
	for _, n := range g.nodes {
		n.Close()
	}
	g.cg.Close()
}

// ProcessAddrs derives the per-process address map of a sharded
// deployment — every process is reachable at its site's shared address
// — plus the process-to-shard map the group demultiplexers use. It
// fails if any site of the topology lacks an address.
func ProcessAddrs(topo *topology.Topology, siteAddrs map[ids.SiteID]string) (map[ids.ProcessID]string, map[ids.ProcessID]ids.ShardID, error) {
	addrs := make(map[ids.ProcessID]string)
	shardOf := make(map[ids.ProcessID]ids.ShardID)
	for _, pi := range topo.Processes() {
		a, ok := siteAddrs[pi.Site]
		if !ok {
			return nil, nil, fmt.Errorf("psmr: no address for site %d (process %d)", pi.Site, pi.ID)
		}
		addrs[pi.ID] = a
		shardOf[pi.ID] = pi.Shard
	}
	return addrs, shardOf, nil
}
