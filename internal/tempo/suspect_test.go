package tempo

import (
	"slices"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/sim"
	"tempo/internal/testnet"
	"tempo/internal/topology"
)

// shippedConfig is Config{} with its defaults spelled out, plus RetainLog
// so the tests can inspect executed commands.
func shippedConfig() Config {
	return Config{PromiseInterval: 5 * time.Millisecond, RecoveryTimeout: 500 * time.Millisecond, RetainLog: true}
}

// countMRec makes net count the MRec envelopes it is asked to send.
func countMRec(net *testnet.Net) *int {
	n := new(int)
	net.Drop = func(e testnet.Env) bool {
		if _, is := e.Msg.(*MRec); is {
			*n++
		}
		return false
	}
	return n
}

// TestSilentCoordinatorRecoveredAfterHeartbeats: a coordinator that is
// not the leader crashes once its MPropose reached the fast quorum, so
// the command is proposed but never committed. Its heartbeats stop, the
// leader suspects it after suspectAfter and recovers the command: it
// commits and executes at both survivors within suspectAfter plus two
// promise intervals of the crash, long before RecoveryTimeout.
func TestSilentCoordinatorRecoveredAfterHeartbeats(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	cfg := shippedConfig()
	procs, net := makeNetCfg(topo, cfg)
	A, B, C := at(topo, 0, 0), at(topo, 1, 0), at(topo, 2, 0)
	if procs[A].Rank() != 1 || procs[C].Rank() == 1 {
		t.Fatal("setup: the leader (rank 1) must be A, not the coordinator C")
	}
	// max(10 × PromiseInterval, RecoveryTimeout/10) at shipped defaults.
	const T = 50 * time.Millisecond

	net.Settle(2, cfg.PromiseInterval) // everyone has heard everyone
	cmd := command.NewPut(procs[C].NextID(), "k", []byte("v"))
	// C's fast quorum proposes, but its acks never come back.
	net.Drop = func(e testnet.Env) bool {
		_, is := e.Msg.(*MProposeAck)
		return is && e.To == C
	}
	net.Submit(C, cmd)
	net.Drain(0)
	if ph := procs[B].cmds[cmd.ID].phase; ph != PhasePropose {
		t.Fatalf("setup: fast-quorum member B in phase %v, want propose", ph)
	}
	net.Crash(C)

	var elapsed time.Duration
	executed := func() bool {
		for _, q := range []*Process{procs[A], procs[B]} {
			if ci := q.cmds[cmd.ID]; ci == nil || ci.phase != PhaseExecute {
				return false
			}
		}
		return true
	}
	for !executed() && elapsed < cfg.RecoveryTimeout {
		net.Settle(1, cfg.PromiseInterval)
		elapsed += cfg.PromiseInterval
	}
	if !executed() {
		t.Fatalf("command not executed at the survivors %v after its coordinator crashed", elapsed)
	}
	if limit := T + 2*cfg.PromiseInterval; elapsed > limit {
		t.Fatalf("command executed %v after the crash, want <= %v (suspectAfter + 2 promise intervals)", elapsed, limit)
	}
	if _, _, rec := procs[A].Stats(); rec == 0 {
		t.Error("the leader did not run recovery")
	}
	for _, q := range []*Process{procs[A], procs[B]} {
		if v, ok := q.Store().Get("k"); !ok || string(v) != "v" {
			t.Errorf("process %d: store missing the recovered write", q.ID())
		}
	}
	t.Logf("executed at the survivors %v after the crash (suspectAfter %v)", elapsed, T)
}

// crashAfterSubmit is a process that, at its first Tick at or after at,
// submits cmd and crashes: the command's MPropose leaves, nothing after.
type crashAfterSubmit struct {
	*Process
	at  time.Duration
	cmd *command.Command
}

func (c *crashAfterSubmit) Tick(now time.Duration) []proto.Action {
	// Tick and Submit return the same reused buffer; copy the first.
	acts := slices.Clone(c.Process.Tick(now))
	if c.cmd != nil && now >= c.at {
		acts = append(acts, c.Submit(c.cmd)...)
		c.cmd = nil
		c.Crash()
	}
	return acts
}

// TestSilentCoordinatorRecoveredOverWAN: the coordinator's crash of
// TestSilentCoordinatorRecoveredAfterHeartbeats on 40 ms links, where a
// recovery's two round trips (MRec, then MConsensus) take longer than
// suspectAfter. The leader must run one ballot to the end rather than
// start a new one at every scan, which would void the answers to the
// last: the survivors execute the command with a single recovery, well
// before RecoveryTimeout.
func TestSilentCoordinatorRecoveredOverWAN(t *testing.T) {
	const oneWay = 40 * time.Millisecond
	names := []string{"A", "B", "C"}
	rtt := make([][]time.Duration, len(names))
	for i := range rtt {
		rtt[i] = make([]time.Duration, len(names))
		for j := range rtt[i] {
			if i != j {
				rtt[i][j] = 2 * oneWay
			}
		}
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shippedConfig()
	A, B, C := at(topo, 0, 0), at(topo, 1, 0), at(topo, 2, 0)
	const crashAt = 200 * time.Millisecond // after the heartbeats settle
	procs := make(map[ids.ProcessID]*Process)
	var cmd *command.Command
	s := sim.New(topo, func(id ids.ProcessID) proto.Replica {
		p := New(id, topo, cfg)
		procs[id] = p
		if id != C {
			return p
		}
		cmd = command.NewPut(p.NextID(), "k", []byte("v"))
		return &crashAfterSubmit{Process: p, at: crashAt, cmd: cmd}
	}, nil, 1)
	if procs[A].Rank() != 1 {
		t.Fatal("setup: the leader (rank 1) must be A")
	}
	executedAt := make(map[ids.ProcessID]time.Duration)
	s.SetExecutedHook(func(at time.Duration, p ids.ProcessID, ex []proto.Executed) {
		for _, e := range ex {
			if e.Cmd.ID == cmd.ID {
				executedAt[p] = at
			}
		}
	})
	s.StartTicks(time.Millisecond)
	s.Run(crashAt + 2*time.Second)

	var last time.Duration
	for _, q := range []ids.ProcessID{A, B} {
		at, ok := executedAt[q]
		if !ok {
			t.Fatalf("process %d: command not executed within 2s of its coordinator's crash (leader recoveries %d)",
				q, procs[A].statRecovered)
		}
		last = max(last, at-crashAt)
	}
	t.Logf("executed at the survivors %v after the crash; leader recoveries %d", last, procs[A].statRecovered)
	if last >= cfg.RecoveryTimeout {
		t.Errorf("executed %v after the crash, want < RecoveryTimeout (%v)", last, cfg.RecoveryTimeout)
	}
	if n := procs[A].statRecovered; n != 1 {
		t.Errorf("leader started %d recoveries, want 1", n)
	}
}

// TestLiveCoordinatorNotSuspected: a command's MCommit is held for
// 200 ms, four times suspectAfter, while every rank keeps gossiping. The
// coordinator is slow, not silent, so nobody may start recovery; once
// the commit is released the command executes everywhere.
func TestLiveCoordinatorNotSuspected(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	cfg := shippedConfig()
	procs, net := makeNetCfg(topo, cfg)
	C := at(topo, 2, 0)
	mrecs := countMRec(net)
	net.Hold = func(e testnet.Env) bool {
		_, is := e.Msg.(*MCommit)
		return is
	}
	cmd := command.NewPut(procs[C].NextID(), "k", []byte("v"))
	net.Submit(C, cmd)
	net.Drain(0)
	if net.HeldCount() == 0 {
		t.Fatal("setup: no MCommit held")
	}
	net.Settle(40, cfg.PromiseInterval) // 200 ms
	if *mrecs != 0 {
		t.Fatalf("%d MRec sent while every coordinator was gossiping", *mrecs)
	}
	for pid, p := range procs {
		if pid != C && phaseOf(p.cmds[cmd.ID]) == PhaseExecute {
			t.Fatalf("setup: process %d executed while the commit was held", pid)
		}
	}
	net.Hold = nil
	net.ReleaseHeld()
	net.Settle(3, cfg.PromiseInterval)
	for pid, p := range procs {
		if ci := p.cmds[cmd.ID]; ci == nil || ci.phase != PhaseExecute {
			t.Fatalf("process %d: not executed after the commit was released (phase %v)", pid, phaseOf(ci))
		}
	}
	if *mrecs != 0 {
		t.Fatalf("%d MRec sent", *mrecs)
	}
}

// TestStalledTickDoesNotSuspect: the leader's tick loop stalls for
// 100 ms, twice suspectAfter, while a command coordinated by C is
// pending. The peers' MPromises arrive during the stall, so at the late
// Tick they count as heard then: silence is measured from Ticks, never
// from the stale clock a message was received under. One tick later B
// has been heard again but C's next heartbeat is still on its way; C
// was heard one tick ago, so it is not suspected either. Stamping
// receipts with the clock of the last Tick instead would date C's
// stall-time messages 100 ms back and recover its command here.
func TestStalledTickDoesNotSuspect(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	cfg := shippedConfig()
	procs, net := makeNetCfg(topo, cfg)
	A, C := at(topo, 0, 0), at(topo, 2, 0)
	mrecs := countMRec(net)
	commitHeld := func(e testnet.Env) bool {
		_, is := e.Msg.(*MCommit)
		return is
	}
	net.Hold = commitHeld
	net.Tick(cfg.PromiseInterval) // everyone broadcasts MPromises
	cmd := command.NewPut(procs[C].NextID(), "k", []byte("v"))
	net.Submit(C, cmd)
	net.Drain(0) // the MPromises and the command's round arrive
	if !procs[A].cmds[cmd.ID].phase.pending() {
		t.Fatal("setup: the command should be pending at the leader")
	}
	net.Hold = func(e testnet.Env) bool { return (e.From == C && e.To == A) || commitHeld(e) }
	net.Tick(100 * time.Millisecond)
	net.Drain(0)
	if *mrecs != 0 {
		t.Fatalf("%d MRec sent after a stalled tick, though every peer's MPromises arrived during it", *mrecs)
	}
	net.Tick(time.Millisecond)
	net.Drain(0)
	if *mrecs != 0 {
		t.Fatalf("%d MRec sent one tick after a stalled one, though C was heard during the stall", *mrecs)
	}
}

// TestStalledInboundDoesNotSuspect: the leader keeps ticking but nothing
// reaches it from anyone for 100 ms, as when its own reader is starved
// of CPU, while a command coordinated elsewhere is pending. Every peer
// is equally silent, so none stands out as failed, and a leader that
// hears nobody could not gather a recovery quorum anyway: no MRec.
func TestStalledInboundDoesNotSuspect(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	cfg := shippedConfig()
	procs, net := makeNetCfg(topo, cfg)
	A, C := at(topo, 0, 0), at(topo, 2, 0)
	mrecs := countMRec(net)
	net.Settle(2, cfg.PromiseInterval)
	commitHeld := func(e testnet.Env) bool {
		_, is := e.Msg.(*MCommit)
		return is
	}
	net.Hold = commitHeld
	cmd := command.NewPut(procs[C].NextID(), "k", []byte("v"))
	net.Submit(C, cmd)
	net.Drain(0)
	if !procs[A].cmds[cmd.ID].phase.pending() {
		t.Fatal("setup: the command should be pending at the leader")
	}
	net.Hold = func(e testnet.Env) bool { return e.To == A || commitHeld(e) }
	net.Settle(20, cfg.PromiseInterval) // 100 ms
	if *mrecs != 0 {
		t.Fatalf("%d MRec sent while the leader heard from nobody", *mrecs)
	}
	net.Hold = nil
	net.ReleaseHeld()
	net.Settle(3, cfg.PromiseInterval)
	for pid, p := range procs {
		if ci := p.cmds[cmd.ID]; ci == nil || ci.phase != PhaseExecute {
			t.Fatalf("process %d: not executed once traffic resumed (phase %v)", pid, phaseOf(ci))
		}
	}
	if *mrecs != 0 {
		t.Fatalf("%d MRec sent", *mrecs)
	}
}
