package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tempo/client"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// RunOpts selects how one workload run is taken.
type RunOpts struct {
	// Window is the measure window; WarmUp precedes it.
	Window, WarmUp time.Duration
	// DataRoot is where data directories are created and removed.
	DataRoot string
	// NoFault disables the crash workload's fault schedule.
	NoFault bool
	// Trace, when set, collects outside-in spans and per-replica
	// execution stamps for this run.
	Trace *Tracer
}

// RunResult is what one run of a workload measured.
type RunResult struct {
	Window    time.Duration
	WarmUp    time.Duration
	Attempted int
	Failed    int
	Retried   int
	// Completed counts the operations that completed inside the window,
	// LastDone is when the last of them did (ns since the epoch).
	Completed int
	LastDone  int64
	// Lat, LatCross and LatSingle are the sorted latencies (ns) of the
	// operations counted in the window; LatCalm of those in its
	// fault-free part, before the first crash (all of them, on a
	// workload without crashes).
	Lat, LatCalm, LatCross, LatSingle []int64
	// Late is the open loop's sorted send lateness (ns).
	Late []int64
	// Stall is the longest gap (ns) between consecutive completions
	// inside any one session.
	Stall int64
	// CPU is the process's CPU time over the window.
	CPU time.Duration
	// Slices describes each slice of the window.
	Slices [Slices]SliceStat
	// Faults records the crash workload's schedule as it happened.
	Faults []FaultEvent
}

// SliceStat is one slice of the measure window.
type SliceStat struct {
	// Completed counts the operations that completed inside the slice,
	// CPU the process's CPU time over it (ns).
	Completed int           `json:"completed"`
	CPU       time.Duration `json:"cpu_ns"`
	// Samples, P50 and P99 describe the latencies (ns) of the slice's
	// operations.
	Samples int   `json:"samples"`
	P50     int64 `json:"p50_ns"`
	P99     int64 `json:"p99_ns"`
}

// FaultEvent is one step of the fault schedule, in ns since the epoch.
type FaultEvent struct {
	Site      int   `json:"site"`
	ClosedAt  int64 `json:"closed_ns"`  // the blackout began; the close follows faultBlackout later
	RestartAt int64 `json:"restart_ns"` // restart began
	ServingAt int64 `json:"serving_ns"` // recovery finished
	// ServedAt is when the restarted site first answered a client.
	ServedAt int64 `json:"served_ns"`
}

// Throughput is operations completed inside the window, per second of
// the time they took: from the window's start to the last completion.
// On a saturated loopback workload that is the window to within
// microseconds; under WAN delays completions come in bursts a round
// trip apart, and dividing by the fixed window would read the same to
// the last digit on every run.
func (r *RunResult) Throughput() float64 {
	return float64(r.Completed) / (time.Duration(r.LastDone) - r.WarmUp).Seconds()
}

// live is a booted deployment with its client sessions connected.
type live struct {
	d     *Deployment
	sess  [Sessions]*client.Session
	setup time.Duration
}

// close tears the sessions and the deployment down.
func (l *live) close() {
	for _, s := range l.sess {
		if s != nil {
			s.Close()
		}
	}
	l.d.Close()
}

// setUp boots the workload's deployment, connects the sessions, and
// completes one operation on each. Its duration is the set-up time a
// user of the system waits before the first answer: topology,
// listeners, data directories, recovery and state-sync, dial, first
// round trip.
func setUp(ctx context.Context, spec Spec, in *Inputs, opts RunOpts) (*live, error) {
	began := time.Now()
	var observe func(ids.ProcessID, ids.ShardID) func(proto.Stable)
	if opts.Trace != nil {
		observe = opts.Trace.Observer
	}
	var l live
	var err error
	if l.d, err = Boot(spec, opts.DataRoot, observe); err != nil {
		return nil, err
	}
	for s := range l.sess {
		// A session prefers its home site's replicas and lists all
		// three sites, so it can fail over.
		home := ids.SiteID(spec.Homes[s])
		cfg := client.Config{Addrs: l.d.procAddrs}
		if spec.Shards > 1 {
			cfg.Topo, cfg.Site = l.d.topo, home
		} else {
			cfg.Prefer = l.d.topo.ProcessAt(home, 0)
		}
		if l.sess[s], err = client.New(cfg); err != nil {
			l.close()
			return nil, err
		}
		first, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err = l.sess[s].Execute(first, command.Op{Kind: command.Get, Key: in.Keys[0]})
		cancel()
		if err != nil {
			l.close()
			return nil, fmt.Errorf("first operation of session %d: %w", s, err)
		}
	}
	l.setup = time.Since(began)
	return &l, nil
}

// runLoad drives the booted workload through warm-up and the measure
// window, checks every output, and verifies the final state.
func runLoad(ctx context.Context, l *live, spec Spec, in *Inputs, opts RunOpts) (*RunResult, error) {
	// The sessions' requests carry this context's deadline, which lies
	// after the run; the drivers enforce OpDeadline per operation.
	total := opts.WarmUp + opts.Window
	ctx, cancel := context.WithTimeout(ctx, total+30*time.Second)
	defer cancel()

	var issued [Sessions]atomic.Uint32
	drivers := make([]*Session, Sessions)
	for s := range drivers {
		drivers[s] = newSession(ctx, s, spec, in, l.sess[s], &issued)
		drivers[s].trace = opts.Trace
	}
	// The fault-free part of the window ends at the first crash.
	calmEnd := total
	if len(spec.Crashes) > 0 && !opts.NoFault {
		calmEnd = opts.WarmUp + time.Duration(spec.Crashes[0].Close*float64(opts.Window))
	}
	epoch := time.Now()
	if opts.Trace != nil {
		opts.Trace.Start(epoch, l.d)
	}
	var wg sync.WaitGroup
	for _, s := range drivers {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			s.Run(epoch, opts.WarmUp, total, calmEnd)
		}(s)
	}

	res := &RunResult{Window: opts.Window, WarmUp: opts.WarmUp}
	sleepUntil(ctx, epoch.Add(opts.WarmUp))
	if opts.Trace != nil {
		opts.Trace.WindowStart()
	}
	var faultErr error
	var faults sync.WaitGroup
	if len(spec.Crashes) > 0 && !opts.NoFault {
		faults.Add(1)
		go func() {
			defer faults.Done()
			res.Faults, faultErr = runFaults(ctx, l.d, epoch, opts)
		}()
	}
	// Read the CPU clock at every slice boundary.
	cpu := cpuTime()
	for k := range res.Slices {
		sleepUntil(ctx, epoch.Add(opts.WarmUp+opts.Window*time.Duration(k+1)/Slices))
		now := cpuTime()
		res.Slices[k].CPU = now - cpu
		res.CPU += now - cpu
		cpu = now
	}
	if opts.Trace != nil {
		opts.Trace.WindowEnd()
	}
	wg.Wait()
	faults.Wait()
	if faultErr != nil {
		return nil, faultErr
	}

	for _, s := range drivers {
		if s.Err != nil {
			return nil, fmt.Errorf("output check failed: %w", s.Err)
		}
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		res.Retried += s.Retried
		res.Completed += s.Completed
		res.LastDone = max(res.LastDone, s.lastDone)
		res.Lat = append(res.Lat, s.Lat...)
		res.LatCalm = append(res.LatCalm, s.Lat[:s.calm]...)
		res.LatCross = append(res.LatCross, s.LatCross...)
		res.LatSingle = append(res.LatSingle, s.LatSingle...)
		res.Late = append(res.Late, s.Late...)
		res.Stall = max(res.Stall, s.Stall.Max)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation completed inside the window")
	}
	for k := range res.Slices {
		var lat []int64
		for _, s := range drivers {
			lat = append(lat, s.slice(k)...)
			res.Slices[k].Completed += s.doneIn[k]
		}
		slices.Sort(lat)
		res.Slices[k].Samples = len(lat)
		res.Slices[k].P50, res.Slices[k].P99 = Percentile(lat, 0.50), Percentile(lat, 0.99)
	}
	slices.Sort(res.Lat)
	slices.Sort(res.LatCalm)
	slices.Sort(res.LatCross)
	slices.Sort(res.LatSingle)
	slices.Sort(res.Late)
	if err := verifyFinal(ctx, l.d, in, drivers, &issued, len(spec.Crashes) > 0); err != nil {
		return nil, fmt.Errorf("output check failed: %w", err)
	}
	return res, nil
}

// runFaults plays the workload's crash schedule. A crash is a short
// blackout followed by an abrupt close (see faultBlackout); a restart
// reuses the site's data directory.
func runFaults(ctx context.Context, d *Deployment, epoch time.Time, opts RunOpts) ([]FaultEvent, error) {
	at := func(share float64) time.Time {
		return epoch.Add(opts.WarmUp + time.Duration(share*float64(opts.Window)))
	}
	var events []FaultEvent
	for i, c := range d.spec.Crashes {
		sleepUntil(ctx, at(c.Close))
		ev := FaultEvent{Site: c.Site, ClosedAt: int64(time.Since(epoch))}
		d.Blackout(c.Site)
		time.Sleep(faultBlackout)
		d.CloseSite(c.Site)
		sleepUntil(ctx, at(c.Restart))
		ev.RestartAt = int64(time.Since(epoch))
		d.Heal()
		if opts.Trace != nil {
			opts.Trace.Restarting(d, c.Site)
		}
		if err := d.RestartSite(c.Site); err != nil {
			return events, fmt.Errorf("restart of site %d: %w", c.Site, err)
		}
		ev.ServingAt = int64(time.Since(epoch))
		// The victim-homed session returns once its redial backoff runs
		// out; watch for the site's first answer until the next step.
		next := at(1)
		if i+1 < len(d.spec.Crashes) {
			next = at(d.spec.Crashes[i+1].Close)
		}
		for time.Now().Before(next) && ctx.Err() == nil {
			if d.Nodes(c.Site)[0].Stats().CompletedReqs > 0 {
				ev.ServedAt = int64(time.Since(epoch))
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		events = append(events, ev)
	}
	return events, nil
}

// sleepUntil sleeps until t or until ctx is done.
func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}
