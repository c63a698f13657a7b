package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/chaos"
	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/psmr"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// fsyncInterval is tempo-server's -fsync default.
const fsyncInterval = 2 * time.Millisecond

// Deployment is one workload's three-site cluster, booted in-process on
// loopback exactly as tempo-server would configure it: standalone nodes
// for one shard (-peers mode), psmr groups for several (-sites mode),
// every tuning knob at its shipped default.
type Deployment struct {
	spec Spec
	topo *topology.Topology
	// dir is the data root (one sub-directory per site); empty when the
	// workload is in-memory.
	dir string
	// shaper is shared by every in-process site; nil when the workload
	// names no link profile and is not traced.
	shaper *cluster.Shaper
	links  *linkCounts

	siteAddrs map[ids.SiteID]string
	procAddrs map[ids.ProcessID]string
	// observe, when set, builds the execution observer installed on
	// every node of a site (traced runs only).
	observe func(p ids.ProcessID, shard ids.ShardID) func(proto.Stable)

	mu     sync.Mutex
	nodes  [Sites][]*cluster.Node
	groups [Sites]*psmr.Group
}

// linkCounts counts messages per directed link by wrapping the shaper's
// policy function, which the runtime consults once per message sent.
type linkCounts struct {
	n [8][8]atomic.Uint64 // process ids are 1..6
}

// Boot starts the deployment under dataRoot and returns once every
// site serves. traced installs a counting shaper and the observers.
func Boot(spec Spec, dataRoot string, observe func(ids.ProcessID, ids.ShardID) func(proto.Stable)) (*Deployment, error) {
	d := &Deployment{
		spec:      spec,
		topo:      newTopology(spec.Shards),
		siteAddrs: make(map[ids.SiteID]string),
		observe:   observe,
	}
	if spec.Durable {
		dir, err := os.MkdirTemp(dataRoot, "data-"+spec.Name+"-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	var policy cluster.PolicyFunc
	if spec.Profile != "" {
		p, err := chaos.Lookup(spec.Profile)
		if err != nil {
			d.Close()
			return nil, err
		}
		policy = p.PolicyFor(d.topo)
	}
	if observe != nil {
		// Traced: count every message per directed link on the way
		// through the policy lookup.
		d.links = &linkCounts{}
		inner := policy
		policy = func(from, to ids.ProcessID) cluster.LinkPolicy {
			d.links.n[from&7][to&7].Add(1)
			if inner == nil {
				return cluster.LinkPolicy{}
			}
			return inner(from, to)
		}
	}
	if spec.Profile != "" || observe != nil {
		// Even a delay-free profile gets a shaper, as in tempo-server: it
		// is the hook for cutting links.
		d.shaper = cluster.NewShaper(policy)
	}

	lns := make([]net.Listener, Sites)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			d.Close()
			return nil, err
		}
		lns[i] = ln
		d.siteAddrs[ids.SiteID(i)] = ln.Addr().String()
	}
	var err error
	if d.procAddrs, _, err = psmr.ProcessAddrs(d.topo, d.siteAddrs); err != nil {
		d.Close()
		return nil, err
	}
	// Start concurrently, as real deployments do: each site's state-sync
	// round finds the others' listeners already answering.
	errs := make([]error, Sites)
	var wg sync.WaitGroup
	for i := 0; i < Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = d.startSite(i, lns[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
	}
	return d, nil
}

// siteDir is one site's data directory ("" when in-memory).
func (d *Deployment) siteDir(site int) string {
	if d.dir == "" {
		return ""
	}
	return filepath.Join(d.dir, fmt.Sprintf("site-%d", site))
}

// startSite runs one site on its bound listener.
func (d *Deployment) startSite(site int, ln net.Listener) error {
	if d.spec.Shards > 1 {
		return d.startGroup(site, ln)
	}
	id := d.topo.ProcessAt(ids.SiteID(site), 0)
	n := cluster.NewNode(id, tempo.New(id, d.topo, tempo.Config{}), d.procAddrs)
	n.SetBatch(cluster.DefaultBatchOps, cluster.DefaultBatchWindow)
	if d.shaper != nil {
		n.SetShaper(d.shaper)
	}
	if d.observe != nil {
		n.SetExecObserver(d.observe(id, 0))
	}
	if dir := d.siteDir(site); dir != "" {
		if err := n.SetDurable(cluster.DurableConfig{
			Dir:           dir,
			SyncInterval:  fsyncInterval,
			SnapshotEvery: cluster.DefaultSnapshotEvery,
		}); err != nil {
			ln.Close()
			return err
		}
	}
	if err := n.StartListener(ln); err != nil {
		return err
	}
	d.mu.Lock()
	d.nodes[site] = []*cluster.Node{n}
	d.mu.Unlock()
	return nil
}

// startGroup runs one site of a sharded deployment.
func (d *Deployment) startGroup(site int, ln net.Listener) error {
	cfg := psmr.Config{
		Topo:          d.topo,
		Site:          ids.SiteID(site),
		SiteAddrs:     d.siteAddrs,
		BatchOps:      cluster.DefaultBatchOps,
		BatchWindow:   cluster.DefaultBatchWindow,
		DataDir:       d.siteDir(site),
		FsyncInterval: fsyncInterval,
		SnapshotEvery: cluster.DefaultSnapshotEvery,
		Shaper:        d.shaper,
	}
	if d.observe != nil {
		// psmr installs one observer on every hosted node; route by the
		// command's shard, which the Stable entry carries.
		obs := make(map[ids.ShardID]func(proto.Stable))
		for s := 0; s < d.spec.Shards; s++ {
			sh := ids.ShardID(s)
			obs[sh] = d.observe(d.topo.ProcessAt(ids.SiteID(site), sh), sh)
		}
		cfg.ExecObserver = func(st proto.Stable) { obs[st.Shard](st) }
	}
	g, err := psmr.StartListener(cfg, ln)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.groups[site] = g
	d.nodes[site] = g.Nodes()
	d.mu.Unlock()
	return nil
}

// Nodes returns a site's nodes (one per shard) as of now.
func (d *Deployment) Nodes(site int) []*cluster.Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nodes[site]
}

// Blackout drops every message the other sites send to site's
// replicas, until Heal: the site still sends, but hears nothing back.
func (d *Deployment) Blackout(site int) {
	for _, to := range d.topo.Processes() {
		if int(to.Site) != site {
			continue
		}
		for _, from := range d.topo.Processes() {
			if from.Site != to.Site {
				d.shaper.CutOneWay(from.ID, to.ID)
			}
		}
	}
}

// Heal lifts every cut.
func (d *Deployment) Heal() { d.shaper.HealAll() }

// CloseSite closes a site abruptly: no drain, pending requests fail,
// client and peer connections drop.
func (d *Deployment) CloseSite(site int) {
	d.mu.Lock()
	g, nodes := d.groups[site], d.nodes[site]
	d.groups[site], d.nodes[site] = nil, nil
	d.mu.Unlock()
	if g != nil {
		g.Close()
		return
	}
	for _, n := range nodes {
		n.Close()
	}
}

// RestartSite brings a closed site back on the same address and data
// directory, as a process restart would. It returns once recovery
// (snapshot load, WAL replay, peer catch-up) is done.
func (d *Deployment) RestartSite(site int) error {
	// The closed listener's port lingers briefly; retry the bind.
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if ln, err = net.Listen("tcp", d.siteAddrs[ids.SiteID(site)]); err == nil {
			return d.startSite(site, ln)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return err
}

// Stats sums the serving counters of every live node.
func (d *Deployment) Stats() cluster.Stats {
	var sum cluster.Stats
	for site := 0; site < Sites; site++ {
		for _, n := range d.Nodes(site) {
			st := n.Stats()
			sum.SubmittedCmds += st.SubmittedCmds
			sum.SubmittedOps += st.SubmittedOps
			sum.CompletedReqs += st.CompletedReqs
			sum.AppliedCmds += st.AppliedCmds
			sum.CrossSubmitted += st.CrossSubmitted
			sum.Watches += st.Watches
			sum.BatchFlushes += st.BatchFlushes
			sum.BatchedOps += st.BatchedOps
			sum.ExecQueue += st.ExecQueue
			sum.Pending += st.Pending
		}
	}
	return sum
}

// Close shuts every site down and removes the data directories.
func (d *Deployment) Close() {
	for site := 0; site < Sites; site++ {
		d.CloseSite(site)
	}
	if d.shaper != nil {
		d.shaper.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
