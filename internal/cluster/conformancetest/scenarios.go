package conformancetest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"tempo/client"
	"tempo/internal/cluster"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/membership"
)

// Scenario is one conformance property: an error-returning check over an
// Engine, so test suites can both run it (expect nil) and prove the
// suite's teeth on a deliberately broken replica (expect non-nil).
type Scenario struct {
	// Name labels the subtest.
	Name string
	// Run executes the scenario against a fresh cluster of e's replicas.
	Run func(e Engine) error
}

// Scenarios returns the full conformance suite, in run order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "Linearizability", Run: Linearizability},
		{Name: "Batching", Run: Batching},
		{Name: "Deadline", Run: Deadline},
		{Name: "PartitionHeal", Run: PartitionHeal},
		{Name: "DurableRestart", Run: DurableRestart},
		{Name: "Reconfig", Run: Reconfig},
	}
}

// Run executes every scenario against e as subtests of t.
func Run(t *testing.T, e Engine) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			if err := sc.Run(e); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Linearizability drives six concurrent sessions — homed round-robin
// across all three replicas so every replica coordinates — through a
// pipelined mix of writes and reads over four heavily conflicting keys,
// then verifies the captured execution logs: validity, conflict-order
// acyclicity and a single per-shard total order.
func Linearizability(e Engine) error {
	c, err := Start(e, Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	pids := c.Pids()
	const nSess, opsPer, inflight = 6, 80, 8
	errc := make(chan error, nSess)
	for s := 0; s < nSess; s++ {
		go func(s int) {
			sess, err := c.Session(pids[s%len(pids)])
			if err != nil {
				errc <- err
				return
			}
			defer sess.Close()
			//tempo:allowctx scenario is a self-contained check and bounds its own run
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			errc <- c.DoPipelined(ctx, sess, inflight, opsPer, func(i int) command.Op {
				key := command.Key(fmt.Sprintf("hot-%d", i%4))
				if i%7 == 3 {
					return command.Op{Kind: command.Get, Key: key}
				}
				return command.Op{
					Kind:  command.Put,
					Key:   key,
					Value: []byte(fmt.Sprintf("lin-s%d-i%d", s, i)),
				}
			})
		}(s)
	}
	for s := 0; s < nSess; s++ {
		if err := <-errc; err != nil {
			return fmt.Errorf("conformance: %s: linearizability load: %w", e.Name, err)
		}
	}
	if err := c.WaitExecuted(pids, c.AckedOps(), 20*time.Second); err != nil {
		return err
	}
	return c.Verify()
}

// Batching reruns the conflicting-write load with server-side submit
// batching armed, then checks the client-visible contract survives
// coalescing: a write issued after every other write acked must win the
// final read, and the per-op execution logs must still verify.
func Batching(e Engine) error {
	c, err := Start(e, Options{BatchOps: 64})
	if err != nil {
		return err
	}
	defer c.Close()
	sess, err := c.Session()
	if err != nil {
		return err
	}
	defer sess.Close()
	//tempo:allowctx scenario is a self-contained check and bounds its own run
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = c.DoPipelined(ctx, sess, 32, 200, func(i int) command.Op {
		return command.Op{
			Kind:  command.Put,
			Key:   "batch",
			Value: []byte(fmt.Sprintf("batch-%d", i)),
		}
	})
	if err != nil {
		return fmt.Errorf("conformance: %s: batched load: %w", e.Name, err)
	}
	const final = "batch-final"
	if err := c.Put(ctx, sess, "batch", final); err != nil {
		return fmt.Errorf("conformance: %s: final put: %w", e.Name, err)
	}
	got, err := c.Get(ctx, sess, "batch")
	if err != nil {
		return fmt.Errorf("conformance: %s: read-back: %w", e.Name, err)
	}
	if got != final {
		return fmt.Errorf("conformance: %s: read-back after batched load = %q, want %q (real-time write order lost)",
			e.Name, got, final)
	}
	if err := c.WaitExecuted(c.Pids(), c.AckedOps(), 20*time.Second); err != nil {
		return err
	}
	return c.Verify()
}

// Deadline isolates one replica and writes through it with a short
// client deadline: the deadline must travel with the request and expire
// server-side as client.ErrTimeout well before the session-level
// request timeout, and after the heal the same replica must accept new
// writes again.
func Deadline(e Engine) error {
	c, err := Start(e, Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	c.Shaper.Isolate(victim)
	sess, err := c.Session(victim)
	if err != nil {
		return err
	}
	defer sess.Close()
	start := time.Now()
	//tempo:allowctx scenario is a self-contained check and bounds its own run
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	err = c.Put(ctx, sess, "dl", "dl-stalled")
	cancel()
	if err == nil {
		return fmt.Errorf("conformance: %s: put through a fully isolated replica succeeded", e.Name)
	}
	if !errors.Is(err, client.ErrTimeout) {
		return fmt.Errorf("conformance: %s: put on isolated replica = %v, want client.ErrTimeout", e.Name, err)
	}
	if el := time.Since(start); el > 5*time.Second {
		return fmt.Errorf("conformance: %s: deadline expired after %v; the 400ms client deadline did not propagate", e.Name, el)
	}
	c.Shaper.Rejoin(victim)
	healBy := time.Now().Add(15 * time.Second)
	for i := 0; ; i++ {
		//tempo:allowctx scenario is a self-contained check and bounds its own run
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Put(pctx, sess, "dl", fmt.Sprintf("dl-retry-%d", i))
		pcancel()
		if err == nil {
			break
		}
		if time.Now().After(healBy) {
			return fmt.Errorf("conformance: %s: replica still rejects writes %v after heal: %w",
				e.Name, 15*time.Second, err)
		}
	}
	if err := c.WaitExecuted(c.Pids(), c.AckedOps(), 20*time.Second); err != nil {
		return err
	}
	return c.Verify()
}

// PartitionHeal cuts the quorum-external replica off mid-stream: the
// cluster must keep committing writes during the partition, and after
// the heal the victim must catch up on everything it missed — driven by
// promise gossip and commit requests — until a consensus read at the
// victim observes the latest write.
func PartitionHeal(e Engine) error {
	c, err := Start(e, Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	sess, err := c.Session()
	if err != nil {
		return err
	}
	defer sess.Close()
	//tempo:allowctx scenario is a self-contained check and bounds its own run
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var last string
	put := func(phase string, i int) error {
		last = fmt.Sprintf("ph-%s-%d", phase, i)
		if err := c.Put(ctx, sess, "ph", last); err != nil {
			return fmt.Errorf("conformance: %s: %s-partition put %d: %w", e.Name, phase, i, err)
		}
		return nil
	}
	for i := 0; i < 15; i++ {
		if err := put("pre", i); err != nil {
			return err
		}
	}
	c.Shaper.Isolate(victim)
	for i := 0; i < 15; i++ {
		if err := put("cut", i); err != nil {
			return fmt.Errorf("%w (the victim sits outside every quorum; writes must not stall)", err)
		}
	}
	c.Shaper.Rejoin(victim)
	for i := 0; i < 15; i++ {
		if err := put("post", i); err != nil {
			return err
		}
	}
	if err := c.WaitExecuted(c.Pids(), c.AckedOps(), 30*time.Second); err != nil {
		return fmt.Errorf("%w (healed replica did not catch up)", err)
	}
	probe, err := c.Session(victim)
	if err != nil {
		return err
	}
	defer probe.Close()
	got, err := c.Get(ctx, probe, "ph")
	if err != nil {
		return fmt.Errorf("conformance: %s: consensus read at healed replica: %w", e.Name, err)
	}
	if got != last {
		return fmt.Errorf("conformance: %s: read at healed replica = %q, want %q", e.Name, got, last)
	}
	return c.Verify()
}

// DurableRestart stops the quorum-external replica, keeps writing
// through the survivors, then boots a fresh replica on the same data
// directory and address: it must recover its state, observe the writes
// it missed and serve new consensus reads and writes. (The out-of-
// process SIGKILL variant lives in the cluster package's crash e2e
// test.) The restarted incarnation's log starts mid-stream, so Verify
// holds it to Validity and Ordering only.
func DurableRestart(e Engine) error {
	dir, err := os.MkdirTemp("", "conformance-"+e.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := Start(e, Options{DataDir: dir})
	if err != nil {
		return err
	}
	defer c.Close()
	pids := c.Pids()
	//tempo:allowctx scenario is a self-contained check and bounds its own run
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	sess, err := c.Session()
	if err != nil {
		return err
	}
	defer sess.Close()
	for i := 0; i < 30; i++ {
		if err := c.Put(ctx, sess, fmt.Sprintf("dr-%d", i%5), fmt.Sprintf("dr-pre-%d", i)); err != nil {
			return fmt.Errorf("conformance: %s: pre-crash put %d: %w", e.Name, i, err)
		}
	}
	time.Sleep(300 * time.Millisecond) // let the victim's WAL sync past the acked writes
	c.Stop(victim)
	surv, err := c.Session(pids[0], pids[1])
	if err != nil {
		return err
	}
	defer surv.Close()
	var last string
	for i := 0; i < 20; i++ {
		last = fmt.Sprintf("dr-out-%d", i)
		if err := c.Put(ctx, surv, "dr-live", last); err != nil {
			return fmt.Errorf("conformance: %s: put with replica down: %w", e.Name, err)
		}
	}
	if err := c.Restart(victim); err != nil {
		return fmt.Errorf("conformance: %s: restart: %w", e.Name, err)
	}
	probe, err := c.Session(victim)
	if err != nil {
		return err
	}
	defer probe.Close()
	catchBy := time.Now().Add(20 * time.Second)
	for {
		//tempo:allowctx scenario is a self-contained check and bounds its own run
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		got, err := c.Get(pctx, probe, "dr-live")
		pcancel()
		if err == nil && got == last {
			break
		}
		if time.Now().After(catchBy) {
			return fmt.Errorf("conformance: %s: restarted replica reads %q (err %v), want %q", e.Name, got, err, last)
		}
	}
	if err := c.Put(ctx, probe, "dr-live", "dr-after-restart"); err != nil {
		return fmt.Errorf("conformance: %s: write through restarted replica: %w", e.Name, err)
	}
	got, err := c.Get(ctx, probe, "dr-live")
	if err != nil || got != "dr-after-restart" {
		return fmt.Errorf("conformance: %s: read-back through restarted replica = %q, %v", e.Name, got, err)
	}
	return c.Verify()
}

// Reconfig drains the quorum-external replica out of the cluster and
// admits a fresh successor on a new address and incarnation — a full
// dynamic-membership epoch change, mid-run, driven entirely through
// the wire config protocol (push, frontier query). Liveness: writes
// must keep completing through every phase, a refresh-enabled session
// homed on the victim must re-route off the draining replica and
// return to the slot once the successor is active, and the successor
// must serve. Safety: the captured logs must still verify across the
// epoch change (the successor's log starts mid-stream, like a
// restart, so Verify holds it to Validity and Ordering only).
func Reconfig(e Engine) error {
	c, err := Start(e, Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	//tempo:allowctx scenario is a self-contained check and bounds its own run
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	const cfgTimeout = 5 * time.Second
	vicSite := c.Topo.Process(victim).Site

	// The session under test: homed on the victim, membership refresh
	// on. Draining replies and dial failures must push it off the slot;
	// an explicit refresh after the replacement must bring it back.
	addrs := make(map[ids.ProcessID]string, len(c.Addrs))
	for id, a := range c.Addrs {
		addrs[id] = a
	}
	sess, err := client.New(client.Config{
		Addrs:          addrs,
		Prefer:         victim,
		Refresh:        true,
		RequestTimeout: 10 * time.Second,
		RedialBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	// put writes through sess, retrying draining rejections (the reply
	// every in-flight-at-drain or stale-routed submission legitimately
	// gets; each one also triggers the session's async refresh).
	put := func(key, val string) error {
		retryBy := time.Now().Add(15 * time.Second)
		for {
			err := c.Put(ctx, sess, key, val)
			if err == nil {
				return nil
			}
			if !errors.Is(err, client.ErrDraining) || time.Now().After(retryBy) {
				return err
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for i := 0; i < 20; i++ {
		if err := put(fmt.Sprintf("rc-%d", i%4), fmt.Sprintf("rc-pre-%d", i)); err != nil {
			return fmt.Errorf("conformance: %s: pre-reconfig put %d: %w", e.Name, i, err)
		}
	}

	// Phase 1 — drain: announce Draining over the wire to every node
	// (including the victim), flush the victim's pipeline, announce
	// Left, stop the process. Writes must keep completing throughout.
	draining, err := c.baseCfg.WithStatus(vicSite, membership.Draining)
	if err != nil {
		return err
	}
	for id, a := range c.Addrs {
		if _, err := membership.Push(a, draining, cfgTimeout); err != nil {
			return fmt.Errorf("conformance: %s: push draining epoch to node %d: %w", e.Name, id, err)
		}
	}
	if err := c.node(victim).Drain(10 * time.Second); err != nil {
		return fmt.Errorf("conformance: %s: drain: %w", e.Name, err)
	}
	for i := 0; i < 10; i++ {
		if err := put("rc-drain", fmt.Sprintf("rc-mid-%d", i)); err != nil {
			return fmt.Errorf("conformance: %s: put during drain: %w", e.Name, err)
		}
	}
	left, err := draining.WithStatus(vicSite, membership.Left)
	if err != nil {
		return err
	}
	for id, a := range c.Addrs {
		if _, err := membership.Push(a, left, cfgTimeout); err != nil {
			return fmt.Errorf("conformance: %s: push left epoch to node %d: %w", e.Name, id, err)
		}
	}
	c.Stop(victim)

	// Phase 2 — admit the successor: a fresh replica takes over the
	// slot at a new address and incarnation. Announce Joining first
	// (the fence precedes the frontier measurement), then collect the
	// successor-safety floors from BOTH survivors over the wire.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	newAddr := ln.Addr().String()
	old, _ := left.Member(vicSite)
	joining, err := left.WithMember(membership.Member{
		Site:        vicSite,
		Name:        old.Name,
		Addr:        newAddr,
		Status:      membership.Joining,
		Incarnation: old.Incarnation + 1,
	})
	if err != nil {
		ln.Close()
		return err
	}
	var floorClock, floorSeq uint64
	for _, pid := range []ids.ProcessID{1, 2} {
		if _, err := membership.Push(c.Addrs[pid], joining, cfgTimeout); err != nil {
			ln.Close()
			return fmt.Errorf("conformance: %s: push joining epoch to node %d: %w", e.Name, pid, err)
		}
		clock, seq, ok, err := membership.QueryFrontier(c.Addrs[pid], victim, cfgTimeout)
		if err != nil || !ok {
			ln.Close()
			return fmt.Errorf("conformance: %s: frontier of %d from node %d: ok=%v err=%v", e.Name, victim, pid, ok, err)
		}
		floorClock, floorSeq = max(floorClock, clock), max(floorSeq, seq)
	}
	floorClock += membership.FrontierMargin
	floorSeq += membership.FrontierMargin

	rep := c.eng.New(victim, c.Topo)
	succAddrs := make(map[ids.ProcessID]string, len(c.Addrs))
	for id, a := range c.Addrs {
		succAddrs[id] = a
	}
	succAddrs[victim] = newAddr
	n := cluster.NewNode(victim, rep, succAddrs)
	n.SetShaper(c.Shaper)
	n.SetBatch(1, 0)
	n.SetExecObserver(c.rec.observer(victim))
	view, err := membership.NewView(joining, c.Topo)
	if err != nil {
		ln.Close()
		return err
	}
	n.SetMembership(view)
	n.SetJoinFloor(floorClock, floorSeq)
	n.BootstrapFromPeers()
	if err := n.StartListener(ln); err != nil {
		return fmt.Errorf("conformance: %s: start successor: %w", e.Name, err)
	}
	c.mu.Lock()
	c.nodes[victim] = n
	c.views[victim] = view
	c.mu.Unlock()
	active, err := joining.WithStatus(vicSite, membership.Active)
	if err != nil {
		return err
	}
	for pid, a := range map[ids.ProcessID]string{1: c.Addrs[1], 2: c.Addrs[2], victim: newAddr} {
		if _, err := membership.Push(a, active, cfgTimeout); err != nil {
			return fmt.Errorf("conformance: %s: push active epoch to node %d: %w", e.Name, pid, err)
		}
	}

	// Phase 3 — liveness across the epoch change: the successor must
	// serve, and the session under test must re-route back onto the
	// slot at its new address after a refresh.
	probe, err := client.New(client.Config{
		Addrs:          map[ids.ProcessID]string{victim: newAddr},
		RequestTimeout: 10 * time.Second,
		RedialBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer probe.Close()
	serveBy := time.Now().Add(20 * time.Second)
	for i := 0; ; i++ {
		//tempo:allowctx scenario is a self-contained check and bounds its own run
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Put(pctx, probe, "rc-succ", fmt.Sprintf("rc-succ-%d", i))
		pcancel()
		if err == nil {
			break
		}
		if time.Now().After(serveBy) {
			return fmt.Errorf("conformance: %s: successor still rejects writes: %w", e.Name, err)
		}
	}
	if installed, err := sess.RefreshConfig(); err != nil {
		return fmt.Errorf("conformance: %s: session refresh: %w", e.Name, err)
	} else if !installed && sess.Epoch() < active.Epoch {
		return fmt.Errorf("conformance: %s: session refresh stuck at epoch %d, want %d", e.Name, sess.Epoch(), active.Epoch)
	}
	if got := sess.Epoch(); got != active.Epoch {
		return fmt.Errorf("conformance: %s: session routes on epoch %d, want %d", e.Name, got, active.Epoch)
	}
	for i := 0; i < 10; i++ {
		if err := put("rc-post", fmt.Sprintf("rc-post-%d", i)); err != nil {
			return fmt.Errorf("conformance: %s: post-reconfig put %d: %w", e.Name, i, err)
		}
	}

	// The survivors hold the full history; the successor's incarnation
	// starts mid-stream.
	if err := c.WaitExecuted([]ids.ProcessID{1, 2}, c.AckedOps(), 30*time.Second); err != nil {
		return err
	}
	return c.Verify()
}
