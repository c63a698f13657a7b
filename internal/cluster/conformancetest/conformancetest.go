// Package conformancetest is the conformance suite of the cluster
// runtime: a reusable harness that boots a real 3-replica TCP cluster on
// loopback around a cluster.Replica constructor and drives it through
// the scenarios the runtime must survive: linearizable history under
// concurrent conflicting sessions, server-side batching, client deadline
// propagation, a partition and heal via cluster.Shaper, a kill-style
// restart on the same data directory, and a live membership change.
//
// Every scenario is an error-returning function over an Engine, so the
// suite is its own test subject: internal/cluster's conformance tests
// run it over Tempo AND prove it fails deliberately broken replicas.
// Executions are captured through cluster.Node.SetExecObserver and
// verified offline with check.Checker, including the prefix-total-order
// property.
package conformancetest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"tempo/client"
	"tempo/internal/check"
	"tempo/internal/cluster"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/membership"
	"tempo/internal/proto"
	"tempo/internal/topology"
)

// Engine is the replica under test: a name for subtests and a
// constructor producing its replica for one process of the topology.
// The negative controls wrap Tempo in deliberately broken replicas.
type Engine struct {
	// Name labels subtests and error messages.
	Name string
	// New constructs the replica for process id. Recovery timers should
	// be armed short: the partition scenarios rely on them to re-drive
	// stalled rounds.
	New func(id ids.ProcessID, topo *topology.Topology) cluster.Replica
}

// harnessTopo is the suite's fixed shape: three single-shard sites at
// f=1, with RTTs growing in site distance so quorum selection is
// deterministic — FastQuorum(1, 2) = {1, 2}, which leaves process 3
// outside every quorum the scenarios' coordinator (process 1) relies
// on, making it the safe partition victim. The RTTs only steer quorum
// choice; no link is actually shaped.
func harnessTopo() *topology.Topology {
	names := []string{"c0", "c1", "c2"}
	rtt := make([][]time.Duration, len(names))
	for i := range rtt {
		rtt[i] = make([]time.Duration, len(names))
		for j := range rtt[i] {
			if i != j {
				d := i - j
				if d < 0 {
					d = -d
				}
				rtt[i][j] = time.Duration(d) * time.Millisecond
			}
		}
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
	if err != nil {
		panic(err) // static configuration
	}
	return topo
}

// victim is the process the partition scenarios cut off: by
// harnessTopo's RTT shape it sits in no coordinator-1 fast quorum, so
// the cluster keeps committing while it is gone.
const victim = ids.ProcessID(3)

// Options tunes a conformance Cluster.
type Options struct {
	// BatchOps, when above 1, arms server-side submit batching with
	// BatchWindow (cluster.DefaultBatchWindow when zero). At most 1,
	// batching is disabled — the suite's default, so each client op is
	// its own consensus command.
	BatchOps int
	// BatchWindow is the batching flush window (see BatchOps).
	BatchWindow time.Duration
	// DataDir, when set, starts every node durable in its own
	// subdirectory.
	DataDir string
}

// Cluster is one booted conformance cluster: real nodes on loopback
// TCP, one shared Shaper for fault injection, and a recorder capturing
// every replica's execution log for offline verification.
type Cluster struct {
	// Topo is the fixed 3-site single-shard topology (see harnessTopo).
	Topo *topology.Topology
	// Addrs maps process ids to their fixed listen addresses (fixed so
	// a restarted node can rebind).
	Addrs map[ids.ProcessID]string
	// Shaper is shared by all nodes: scenarios cut, isolate and heal
	// through it.
	Shaper *cluster.Shaper

	eng  Engine
	opts Options
	rec  *recorder
	// baseCfg is the epoch-1 membership configuration every node's view
	// starts from (the static wiring lifted; see internal/membership).
	baseCfg *membership.Config

	mu    sync.Mutex
	nodes map[ids.ProcessID]*cluster.Node
	views map[ids.ProcessID]*membership.View
}

// Start boots a conformance cluster running e's replicas.
func Start(e Engine, opts Options) (*Cluster, error) {
	topo := harnessTopo()
	c := &Cluster{
		Topo:   topo,
		Addrs:  make(map[ids.ProcessID]string),
		Shaper: cluster.NewShaper(nil),
		eng:    e,
		opts:   opts,
		rec:    newRecorder(),
		nodes:  make(map[ids.ProcessID]*cluster.Node),
		views:  make(map[ids.ProcessID]*membership.View),
	}
	lns := make(map[ids.ProcessID]net.Listener)
	for _, pi := range topo.Processes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		lns[pi.ID] = ln
		c.Addrs[pi.ID] = ln.Addr().String()
	}
	// Lift the fixed wiring into the epoch-1 membership config, so every
	// node runs under a live view: the reconfig scenario drives epoch
	// changes through the wire config protocol, and the remaining
	// scenarios prove the views change nothing while the config is
	// static.
	siteAddrs := make(map[ids.SiteID]string)
	for _, pi := range topo.Processes() {
		siteAddrs[pi.Site] = c.Addrs[pi.ID]
	}
	c.baseCfg = membership.FromTopology(topo, siteAddrs)
	for _, pi := range topo.Processes() {
		if err := c.startNode(pi.ID, lns[pi.ID]); err != nil {
			for id, ln := range lns {
				if _, started := c.nodes[id]; !started {
					ln.Close()
				}
			}
			c.Close()
			return nil, fmt.Errorf("conformance: start %s node %d: %w", e.Name, pi.ID, err)
		}
	}
	return c, nil
}

// startNode builds and starts one node; ln nil re-listens on the
// process's fixed address (the restart path).
func (c *Cluster) startNode(id ids.ProcessID, ln net.Listener) error {
	rep := c.eng.New(id, c.Topo)
	n := cluster.NewNode(id, rep, c.Addrs)
	n.SetShaper(c.Shaper)
	if c.opts.BatchOps > 1 {
		w := c.opts.BatchWindow
		if w <= 0 {
			w = cluster.DefaultBatchWindow
		}
		n.SetBatch(c.opts.BatchOps, w)
	} else {
		n.SetBatch(1, 0)
	}
	n.SetExecObserver(c.rec.observer(id))
	view, err := membership.NewView(c.baseCfg, c.Topo)
	if err != nil {
		return err
	}
	n.SetMembership(view)
	if c.opts.DataDir != "" {
		if err := n.SetDurable(cluster.DurableConfig{
			Dir:          filepath.Join(c.opts.DataDir, fmt.Sprintf("node-%d", id)),
			SyncInterval: time.Millisecond,
		}); err != nil {
			return err
		}
	}
	if ln != nil {
		err = n.StartListener(ln)
	} else {
		err = n.Start()
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.views[id] = view
	c.mu.Unlock()
	return nil
}

// node returns process id's running node (nil when stopped).
func (c *Cluster) node(id ids.ProcessID) *cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Stop closes process id's node; its listener and links die with it.
func (c *Cluster) Stop(id ids.ProcessID) {
	c.mu.Lock()
	n := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if n != nil {
		n.Close()
	}
}

// Restart stops process id's node and boots a fresh replica on the same
// data directory and address — the in-process analogue of a
// kill-restart (the real SIGKILL end-to-end test lives in the cluster
// package's crash tests). Only valid on durable clusters. Rebinding the
// fixed address can race the kernel's port release, so it retries
// briefly.
func (c *Cluster) Restart(id ids.ProcessID) error {
	if c.opts.DataDir == "" {
		return fmt.Errorf("conformance: Restart(%d) on a non-durable cluster", id)
	}
	c.Stop(id)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.startNode(id, nil)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Close shuts every node and the shaper down.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := make([]*cluster.Node, 0, len(c.nodes))
	for id, n := range c.nodes {
		nodes = append(nodes, n)
		delete(c.nodes, id)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
	c.Shaper.Close()
}

// Session opens a client session over the given replicas (over all of
// them when none are named).
func (c *Cluster) Session(procs ...ids.ProcessID) (*client.Session, error) {
	addrs := make(map[ids.ProcessID]string)
	if len(procs) == 0 {
		for id, a := range c.Addrs {
			addrs[id] = a
		}
	} else {
		for _, id := range procs {
			addrs[id] = c.Addrs[id]
		}
	}
	return client.New(client.Config{
		Addrs:          addrs,
		RequestTimeout: 10 * time.Second,
		RedialBackoff:  100 * time.Millisecond,
	})
}

// Put registers val as issued and writes it through sess. Scenario
// values MUST be globally unique within a cluster: the recorder ties
// executed commands back to issued operations by value.
func (c *Cluster) Put(ctx context.Context, sess *client.Session, key, val string) error {
	c.rec.issue(val)
	if err := sess.Put(ctx, key, []byte(val)); err != nil {
		return err
	}
	c.rec.ack(1)
	return nil
}

// Get reads key through sess (ErrNotFound counts as a completed,
// executed command).
func (c *Cluster) Get(ctx context.Context, sess *client.Session, key string) (string, error) {
	v, err := sess.Get(ctx, key)
	if err == nil || errors.Is(err, client.ErrNotFound) {
		c.rec.ack(1)
	}
	return string(v), err
}

// DoPipelined issues n single-op commands through sess, keeping up to
// inflight outstanding; op(i) builds the i-th operation (puts are
// registered as issued automatically).
func (c *Cluster) DoPipelined(ctx context.Context, sess *client.Session, inflight, n int, op func(i int) command.Op) error {
	if inflight < 1 {
		inflight = 1
	}
	futs := make([]*client.Future, 0, inflight)
	reap := func(f *client.Future) error {
		if _, err := f.Wait(ctx); err != nil {
			return err
		}
		c.rec.ack(1)
		return nil
	}
	for i := 0; i < n; i++ {
		if len(futs) == inflight {
			if err := reap(futs[0]); err != nil {
				return err
			}
			futs = futs[1:]
		}
		o := op(i)
		if o.Kind == command.Put {
			c.rec.issue(string(o.Value))
		}
		futs = append(futs, sess.Do(ctx, o))
	}
	for _, f := range futs {
		if err := reap(f); err != nil {
			return err
		}
	}
	return nil
}

// AckedOps returns how many client operations completed successfully so
// far — the floor every replica's execution log must eventually reach.
func (c *Cluster) AckedOps() int { return c.rec.ackedOps() }

// WaitExecuted blocks until every listed process's current incarnation
// has executed at least n client operations — the convergence barrier
// scenarios run before verifying logs. Restarted nodes re-count from
// their restart (WAL replay and peer state sync bypass the exec
// observer), so pass only full-history processes here.
func (c *Cluster) WaitExecuted(procs []ids.ProcessID, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.rec.allExecuted(procs, n) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conformance: %s: processes %v did not reach %d executed ops in %v (at %v)",
				c.eng.Name, procs, n, timeout, c.rec.opCounts(procs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Pids returns every process id of the topology, in order.
func (c *Cluster) Pids() []ids.ProcessID {
	var out []ids.ProcessID
	for _, pi := range c.Topo.Processes() {
		out = append(out, pi.ID)
	}
	return out
}

// Verify replays the captured execution logs through check.Checker:
// Validity (at-most-once per incarnation, every executed write issued
// by this harness), Ordering (conflicting pairs acyclic across all
// logs) and one common per-shard total order that every process's first
// incarnation executed a prefix of. A restarted or successor
// incarnation's log starts mid-stream, which the from-index-0 prefix
// comparison cannot represent, so it is held to Validity and Ordering
// only. Call after WaitExecuted so slow replicas are not mistaken for
// divergent ones.
func (c *Cluster) Verify() error {
	return c.rec.verify(c.eng.Name)
}

// recorder captures per-process execution logs (via exec observers) and
// the client-side issue/ack ledger scenarios verify against.
type recorder struct {
	mu     sync.Mutex
	cmds   map[ids.Dot]*command.Command
	logs   map[ids.ProcessID][]incarnation
	issued map[string]bool
	acked  int
}

// incarnation is one node incarnation's execution log: command order
// plus the client-op count (batched commands carry several ops).
type incarnation struct {
	order []ids.Dot
	ops   int
}

func newRecorder() *recorder {
	return &recorder{
		cmds:   make(map[ids.Dot]*command.Command),
		logs:   make(map[ids.ProcessID][]incarnation),
		issued: make(map[string]bool),
	}
}

// observer returns the exec-observer hook for one node incarnation.
func (r *recorder) observer(id ids.ProcessID) func(proto.Stable) {
	r.mu.Lock()
	r.logs[id] = append(r.logs[id], incarnation{})
	inc := len(r.logs[id]) - 1
	r.mu.Unlock()
	return func(st proto.Stable) {
		r.mu.Lock()
		in := &r.logs[id][inc]
		in.order = append(in.order, st.Cmd.ID)
		in.ops += len(st.Cmd.Ops)
		if _, ok := r.cmds[st.Cmd.ID]; !ok {
			r.cmds[st.Cmd.ID] = st.Cmd
		}
		r.mu.Unlock()
	}
}

func (r *recorder) issue(val string) {
	r.mu.Lock()
	r.issued[val] = true
	r.mu.Unlock()
}

func (r *recorder) ack(n int) {
	r.mu.Lock()
	r.acked += n
	r.mu.Unlock()
}

func (r *recorder) ackedOps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked
}

// allExecuted reports whether every listed process's latest incarnation
// has executed at least n client ops.
func (r *recorder) allExecuted(procs []ids.ProcessID, n int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range procs {
		incs := r.logs[p]
		if len(incs) == 0 || incs[len(incs)-1].ops < n {
			return false
		}
	}
	return true
}

// opCounts renders the latest-incarnation op counts for error messages.
func (r *recorder) opCounts(procs []ids.ProcessID) map[ids.ProcessID]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ids.ProcessID]int, len(procs))
	for _, p := range procs {
		if incs := r.logs[p]; len(incs) > 0 {
			out[p] = incs[len(incs)-1].ops
		}
	}
	return out
}

// verify implements Cluster.Verify on a consistent snapshot.
func (r *recorder) verify(engine string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	chk, first := check.New(), check.New()
	for _, cmd := range r.cmds {
		for _, op := range cmd.Ops {
			if op.Kind == command.Put && !r.issued[string(op.Value)] {
				return fmt.Errorf("conformance: %s: executed write %q on key %q was never issued by a session",
					engine, op.Value, op.Key)
			}
		}
		chk.Submitted(cmd)
	}
	for pid, incs := range r.logs {
		for i, in := range incs {
			order := make([]ids.Dot, len(in.order))
			copy(order, in.order)
			l := check.Log{Process: pid, Shard: 0, Order: order}
			chk.Executed(l)
			if i == 0 {
				first.Executed(l)
			}
		}
	}
	if err := chk.Verify(); err != nil {
		return fmt.Errorf("conformance: %s: %w", engine, err)
	}
	if err := first.VerifyTotalOrder(); err != nil {
		return fmt.Errorf("conformance: %s: %w", engine, err)
	}
	return nil
}
