package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"tempo/internal/chaos"
	"tempo/internal/ids"
)

// tracedRun takes a workload's per-layer metrics. It runs the workload
// twice in this process, each for half the window: first untraced, for
// the throughput the tracing overhead is measured against, then with
// the execution observers, the counting shaper and the sampler
// installed. The layer measurements follow, fed with the batch size and
// command rate the traced run observed.
func tracedRun(ctx context.Context, w io.Writer, spec Spec, seed int64, seconds int, nofault bool) (*Contract, *Detail, error) {
	in := Generate(spec, seed)
	window, warmUp := windows(seconds)
	window /= 2
	opts := RunOpts{Window: window, WarmUp: warmUp, DataRoot: outDir, NoFault: nofault}

	plain, err := oneRun(ctx, spec, in, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced half: %w", err)
	}
	tr := NewTracer(spec)
	opts.Trace = tr
	res, err := oneRun(ctx, spec, in, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("traced half: %w", err)
	}
	rep, err := tr.Report()
	if err != nil {
		return nil, nil, err
	}
	tracePath := filepath.Join(outDir, "trace-"+spec.Name+".json")
	if err := rep.WriteFile(tracePath); err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	ops := float64(len(res.Lat))
	s0, s1 := tr.stats0, tr.stats1
	cmds := float64(s1.cmds - s0.cmds)
	if f := float64(s1.flushes - s0.flushes); f > 0 {
		m["cluster.ops_per_batch"] = float64(s1.batchedOps-s0.batchedOps) / f
	}
	m["cluster.cmds_per_op"] = cmds / ops
	m["cluster.msgs_per_op"] = float64(s1.msgs-s0.msgs) / ops
	slices.Sort(tr.queue)
	slices.Sort(tr.pending)
	m["cluster.exec_queue_depth_p50"] = float64(Percentile(tr.queue, 0.50))
	m["cluster.exec_queue_depth_max"] = float64(Percentile(tr.queue, 1))
	m["cluster.pending"] = float64(Percentile(tr.pending, 0.50))
	m["cluster.order_wait_ms"], m["cluster.order_wait_p99_ms"] = rep.P50["cluster.order"], rep.P99["cluster.order"]
	m["cluster.reply_ms"], m["cluster.reply_p99_ms"] = rep.P50["cluster.reply"], rep.P99["cluster.reply"]
	m["cluster.follower_lag_ms"], m["cluster.follower_lag_p99_ms"] = rep.P50["cluster.follower_lag"], rep.P99["cluster.follower_lag"]
	m["trace.client_do_p50_ms"] = rep.P50["client.do"]
	m["trace.reconcile_pct"] = rep.ReconcilePct
	m["trace_overhead_pct"] = (plain.Throughput() - res.Throughput()) / plain.Throughput() * 100
	m["wal.bytes_per_op"] = float64(tr.walBytes) / ops
	m["wal.rotations"] = float64(tr.walRotations)
	if spec.Shards > 1 {
		m["psmr.cross_share"] = float64(len(res.LatCross)) / ops
		if c := float64(s1.cross - s0.cross); c > 0 {
			m["psmr.watches_per_cross"] = float64(s1.watches-s0.watches) / c
		}
		m["psmr.cross_p50_ms"] = ms(Percentile(res.LatCross, 0.50))
		m["psmr.single_p50_ms"] = ms(Percentile(res.LatSingle, 0.50))
	}
	if len(res.Faults) > 0 {
		var failover, catchup []float64
		for _, ev := range res.Faults {
			if first := tr.firstDone(ev.Site, ev.ClosedAt); first > 0 {
				failover = append(failover, ms(first-ev.ClosedAt))
			}
			if ev.ServedAt > 0 {
				catchup = append(catchup, float64(ev.ServedAt-ev.RestartAt)/1e9)
			}
		}
		m["recovery.failover_ms"] = Median(failover)
		m["recovery.catchup_s"] = Median(catchup)
	}

	perBatch := int(m["cluster.ops_per_batch"] + 0.5)
	perCmd := time.Millisecond
	if cmds > 0 {
		// Every replica counts the commands it submitted, so the
		// deployment's command rate is the sum.
		perCmd = time.Duration(float64(window) / cmds)
	}
	if err := measureLayers(spec, in, outDir, perBatch, perCmd, m); err != nil {
		return nil, nil, fmt.Errorf("layer measurements: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	c := &Contract{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]Value{}}
	for _, d := range PerLayer {
		c.Metrics[d.Name] = Value{m[d.Name], d.Unit}
	}
	det := newDetail(spec, in, seed, true, window, warmUp)
	det.Faults = res.Faults
	dg := det.Diagnostics
	dg["throughput_untraced_ops_s"] = plain.Throughput()
	dg["throughput_traced_ops_s"] = res.Throughput()
	dg["trace_requests"] = float64(rep.Requests)
	dg["trace_split"] = float64(rep.Split)
	dg["executions_checked"] = float64(rep.Executions)
	dg["client_do_p99_ms"] = rep.P99["client.do"]
	if spec.Durable && fsType(outDir) == "tmpfs" {
		det.Notes = append(det.Notes, "data directory is on tmpfs: wal.append_us and wal.appendsync_us are skipped (0); counts and bytes only")
	}
	if spec.Profile != "" {
		det.Notes = append(det.Notes, profileNote(spec))
	}
	det.Notes = append(det.Notes, "spans: "+filepath.Join("benchmark", tracePath))
	report(w, spec, c, det)
	links := make([]string, 0, len(rep.Links))
	for link := range rep.Links {
		links = append(links, link)
	}
	slices.Sort(links)
	for _, link := range links {
		fmt.Fprintf(w, "  link %s  %.3f msgs/op\n", link, float64(rep.Links[link])/ops)
	}
	return c, det, nil
}

// oneRun sets the workload up once, runs it and tears it down.
func oneRun(ctx context.Context, spec Spec, in *Inputs, opts RunOpts) (*RunResult, error) {
	l, err := setUp(ctx, spec, in, opts)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer l.close()
	return runLoad(ctx, l, spec, in, opts)
}

// firstDone is when the session homed on site first completed an
// operation after instant t (ns since the run's epoch); 0 if never, or
// if no session is homed there.
func (t *Tracer) firstDone(site int, after int64) int64 {
	var first int64
	for s, home := range t.spec.Homes {
		if home != site {
			continue
		}
		for _, d := range t.done[s] {
			if d > after && (first == 0 || d < first) {
				first = d
			}
		}
	}
	return first
}

// profileNote states the delay a link profile injects, which a latency
// read without it would be meaningless.
func profileNote(spec Spec) string {
	p, err := chaos.Lookup(spec.Profile)
	if err != nil {
		return "profile " + spec.Profile
	}
	if p.SiteLink == nil {
		return fmt.Sprintf("injected delay: none (profile %q: %s)", p.Name, p.Description)
	}
	note := fmt.Sprintf("injected delay: profile %q (%s); one-way delay = RTT/2:", p.Name, p.Description)
	for a := 0; a < Sites; a++ {
		for b := a + 1; b < Sites; b++ {
			lp := p.SiteLink(ids.SiteID(a), ids.SiteID(b))
			note += fmt.Sprintf(" site%d-site%d %v+%v jitter", a, b, lp.Delay, lp.Jitter)
		}
	}
	return note
}
