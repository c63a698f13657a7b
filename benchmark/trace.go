package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/check"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// traceLen bounds the per-session operations a traced run can stamp:
// the warm-up and a half-length window at the saturated rate this
// machine reaches, with a third to spare. Later ones go untraced.
const traceLen = 1 << 21

// traceSpans bounds the requests whose spans are written to the trace
// file; the summary covers every traced request.
const traceSpans = 4000

// Tracer collects a traced run's outside-in view. Every put carries
// its session and sequence number in its value, so an execution
// observer on every replica can stamp when the replica's executor
// dequeued it; together with the driver's own send and completion
// times that splits each request span (client.do) into cluster.order
// (send to execution at the coordinating replica) and cluster.reply
// (execution to the future's completion), and gives the lag of the
// last replica behind the coordinator. The same observer feeds
// check.Incremental, and a sampler reads queue depths and WAL sizes
// every 100 ms. Nothing here touches the program under test: the
// observer, the stats and the shaper policy are its exported hooks.
type Tracer struct {
	spec Spec
	base time.Time // all stamps are ns since base
	inc  *check.Incremental
	site map[ids.ProcessID]int

	// exec[site][session][seq] is when the site executed the put.
	exec [Sites][Sessions][]atomic.Int64
	// start/done[session][seq] are the driver's clock readings.
	start, done [Sessions][]int64

	d        *Deployment
	offset   int64 // run epoch - base
	winStart int64 // ns since run epoch
	winEnd   int64

	stats0, stats1 clusterCounters
	sampleStop     chan struct{}
	sampleDone     sync.WaitGroup
	queue, pending []int64
	walBytes       int64
	walRotations   int64
}

// clusterCounters is what the tracer reads at the window's edges.
type clusterCounters struct {
	batchedOps, flushes, cmds, cross, watches, msgs uint64
	links                                           [8][8]uint64
}

// NewTracer prepares a tracer for one run of spec.
func NewTracer(spec Spec) *Tracer {
	t := &Tracer{spec: spec, base: time.Now(), inc: check.NewIncremental(), site: make(map[ids.ProcessID]int)}
	for _, pi := range newTopology(spec.Shards).Processes() {
		t.site[pi.ID] = int(pi.Site)
		t.inc.AddProcess(pi.Shard, pi.ID)
	}
	for s := 0; s < Sessions; s++ {
		for site := range t.exec {
			t.exec[site][s] = make([]atomic.Int64, traceLen)
		}
		t.start[s] = make([]int64, traceLen)
		t.done[s] = make([]int64, traceLen)
	}
	return t
}

// Observer builds the execution observer of process p: it runs on the
// node's executor goroutine for every command, just before the apply.
func (t *Tracer) Observer(p ids.ProcessID, shard ids.ShardID) func(proto.Stable) {
	site := t.site[p]
	return func(st proto.Stable) {
		now := int64(time.Since(t.base))
		t.inc.Executed(p, shard, st.Cmd.ID, st.TS)
		for i := range st.Cmd.Ops {
			op := &st.Cmd.Ops[i]
			if op.Kind != command.Put {
				continue
			}
			if s, seq, ok := Writer(op.Value); ok && seq < traceLen {
				t.exec[site][s][seq].Store(now)
			}
		}
	}
}

// Restarting tells the order check that a site's replicas begin a new
// incarnation, which resumes wherever its recovery left it.
func (t *Tracer) Restarting(d *Deployment, site int) {
	for _, pi := range d.topo.Processes() {
		if int(pi.Site) == site {
			t.inc.ResetProcess(pi.Shard, pi.ID)
		}
	}
}

// Start records the run's epoch.
func (t *Tracer) Start(epoch time.Time, d *Deployment) {
	t.d = d
	t.offset = int64(epoch.Sub(t.base))
}

// Done records one completed operation (driver goroutine of session).
func (t *Tracer) Done(session int, seq uint32, start, done int64) {
	if seq < traceLen {
		t.start[session][seq], t.done[session][seq] = start, done
	}
}

// counters reads the deployment's cumulative counters.
func (t *Tracer) counters() clusterCounters {
	st := t.d.Stats()
	c := clusterCounters{
		batchedOps: st.BatchedOps, flushes: st.BatchFlushes, cmds: st.SubmittedCmds,
		cross: st.CrossSubmitted, watches: st.Watches,
	}
	if l := t.d.links; l != nil {
		for i := range l.n {
			for j := range l.n[i] {
				c.links[i][j] = l.n[i][j].Load()
				c.msgs += c.links[i][j]
			}
		}
	}
	return c
}

// WindowStart marks the start of the measure window and starts the
// 100 ms sampler.
func (t *Tracer) WindowStart() {
	t.winStart = int64(time.Since(t.base)) - t.offset
	t.stats0 = t.counters()
	t.sampleStop = make(chan struct{})
	t.sampleDone.Add(1)
	go t.sample()
}

// WindowEnd marks the end of the measure window and stops the sampler.
func (t *Tracer) WindowEnd() {
	t.winEnd = int64(time.Since(t.base)) - t.offset
	t.stats1 = t.counters()
	close(t.sampleStop)
	t.sampleDone.Wait()
}

// sample reads, every 100 ms, the executor queue depth (the deepest of
// the nodes), the commands pending with live client waiters (summed),
// and the size of each replica's current WAL file. WAL bytes are the
// growth between samples, so the tail written between the last sample
// and a rotation is missed: the figure is a slight under-count.
func (t *Tracer) sample() {
	defer t.sampleDone.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	type walPos struct {
		gen  string
		size int64
	}
	last := make(map[string]walPos)
	scan := func(first bool) {
		if t.d.dir == "" {
			return
		}
		filepath.WalkDir(t.d.dir, func(path string, e os.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasPrefix(e.Name(), "wal-") {
				return nil
			}
			fi, err := e.Info()
			if err != nil {
				return nil
			}
			dir := filepath.Dir(path)
			prev, seen := last[dir]
			if seen && prev.gen > e.Name() {
				return nil // the outgoing generation, about to be deleted
			}
			switch {
			case first || !seen:
			case prev.gen == e.Name():
				t.walBytes += fi.Size() - prev.size
			default:
				t.walBytes += fi.Size()
				t.walRotations++
			}
			last[dir] = walPos{e.Name(), fi.Size()}
			return nil
		})
	}
	scan(true)
	for {
		select {
		case <-t.sampleStop:
			scan(false)
			return
		case <-tick.C:
		}
		var depth, pending int64
		for site := 0; site < Sites; site++ {
			for _, n := range t.d.Nodes(site) {
				st := n.Stats()
				depth = max(depth, int64(st.ExecQueue))
				pending += int64(st.Pending)
			}
		}
		t.queue = append(t.queue, depth)
		t.pending = append(t.pending, pending)
		scan(false)
	}
}

// span is one entry of the trace file.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// TraceReport is the traced window's summary, and the trace file's
// header.
type TraceReport struct {
	Workload string `json:"workload"`
	// Requests counts the puts completed in the window; Split counts
	// those whose execution stamp at a coordinating replica fell
	// between send and completion, so that the span could be split.
	Requests int `json:"requests"`
	Split    int `json:"split"`
	// P50 and P99 are per span name, in ms.
	P50 map[string]float64 `json:"p50_ms"`
	P99 map[string]float64 `json:"p99_ms"`
	// ReconcilePct is |p50(order)+p50(reply)-p50(do)| / p50(do) * 100.
	ReconcilePct float64 `json:"reconcile_pct"`
	// Links counts messages per directed link "from>to" in the window.
	Links map[string]uint64 `json:"links"`
	// Executions is how many executions the order check consumed.
	Executions uint64 `json:"executions_checked"`
	Spans      []span `json:"spans"`
}

// Report splits every put completed in the window into its spans and
// summarizes them.
func (t *Tracer) Report() (*TraceReport, error) {
	if err := t.inc.Err(); err != nil {
		return nil, fmt.Errorf("execution-order check failed: %w", err)
	}
	rep := &TraceReport{
		Workload: t.spec.Name, P50: map[string]float64{}, P99: map[string]float64{},
		Links: map[string]uint64{}, Executions: t.inc.Stats().Seen,
	}
	var do, order, reply, lag []int64
	type req struct {
		s                      int
		seq                    uint32
		start, exec, done, end int64
	}
	var reqs []req
	for s := 0; s < Sessions; s++ {
		for seq := 0; seq < traceLen; seq++ {
			start, done := t.start[s][seq], t.done[s][seq]
			if done == 0 || done <= t.winStart || done > t.winEnd {
				continue
			}
			// Only puts are stamped; a get has no stamp anywhere.
			var stamps [Sites]int64
			var latest int64
			for site := range stamps {
				if v := t.exec[site][s][seq].Load(); v != 0 {
					stamps[site] = v - t.offset
					latest = max(latest, stamps[site])
				}
			}
			if latest == 0 {
				continue
			}
			rep.Requests++
			// The coordinating replica is the session's home site; after
			// a fail-over it is whichever replica executed last before
			// the reply arrived.
			exec := stamps[t.spec.Homes[s]]
			if exec < start || exec > done {
				exec = 0
				for _, v := range stamps {
					if v >= start && v <= done && v > exec {
						exec = v
					}
				}
			}
			if exec == 0 {
				continue
			}
			rep.Split++
			do = append(do, done-start)
			order = append(order, exec-start)
			reply = append(reply, done-exec)
			lag = append(lag, latest-exec)
			reqs = append(reqs, req{s, uint32(seq), start, exec, done, latest})
		}
	}
	for name, v := range map[string][]int64{"client.do": do, "cluster.order": order, "cluster.reply": reply, "cluster.follower_lag": lag} {
		slices.Sort(v)
		rep.P50[name] = ms(Percentile(v, 0.50))
		rep.P99[name] = ms(Percentile(v, 0.99))
	}
	if d := rep.P50["client.do"]; d > 0 {
		diff := rep.P50["cluster.order"] + rep.P50["cluster.reply"] - d
		if diff < 0 {
			diff = -diff
		}
		rep.ReconcilePct = diff / d * 100
	}
	for i := range t.stats1.links {
		for j := range t.stats1.links[i] {
			if n := t.stats1.links[i][j] - t.stats0.links[i][j]; n > 0 {
				rep.Links[fmt.Sprintf("%d>%d", i, j)] = n
			}
		}
	}
	slices.SortFunc(reqs, func(a, b req) int { return cmp.Compare(a.start, b.start) })
	step := max(len(reqs)/traceSpans, 1)
	for i := 0; i < len(reqs); i += step {
		r := reqs[i]
		id := fmt.Sprintf("%d:%d", r.s, r.seq)
		rep.Spans = append(rep.Spans,
			span{ID: id, Name: "client.do", Start: r.start, End: r.done},
			span{ID: id, Name: "cluster.order", Parent: "client.do", Start: r.start, End: r.exec},
			span{ID: id, Name: "cluster.reply", Parent: "client.do", Start: r.exec, End: r.done},
			span{ID: id, Name: "cluster.follower_lag", Parent: "cluster.order", Start: r.exec, End: r.end})
	}
	return rep, nil
}

// WriteFile writes the report as JSON.
func (r *TraceReport) WriteFile(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
