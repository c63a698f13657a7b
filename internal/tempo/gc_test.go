package tempo

import (
	"fmt"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/testnet"
)

// gcConfig runs with collection on and a recovery period short enough
// that the settle rounds also drain periodicRecovery's queue.
func gcConfig() Config {
	return Config{RecoveryTimeout: 20 * time.Millisecond}
}

// assertCollected checks that p holds no per-command state at all: the
// only residue of the commands it saw is the tracker's forgotten set, of
// the given number of intervals.
func assertCollected(t *testing.T, p *Process, intervals int) {
	t.Helper()
	committed, pending := p.tracker.InFlight()
	for name, n := range map[string]int{
		"cmds":              len(p.cmds),
		"attached queue":    p.attached.len(),
		"execution log":     p.executed.len(),
		"commit heap":       p.committed.len(),
		"ready queue":       len(p.ready),
		"pending queue":     len(p.pendingQ),
		"tracker committed": committed,
		"tracker pending":   pending,
		"uncommittedSeen":   len(p.uncommittedSeen),
		"lastCommitReq":     len(p.lastCommitReq),
	} {
		if n != 0 {
			t.Errorf("process %d (shard %d): %s holds %d entries after quiescence", p.ID(), p.Shard(), name, n)
		}
	}
	if n := p.detached.NumIntervals(); n != 1 {
		t.Errorf("process %d: detached set should have merged into one interval, got %v", p.ID(), p.detached)
	}
	if n := p.tracker.ForgottenIntervals(); n != intervals {
		t.Errorf("process %d: forgotten set has %d intervals, want %d", p.ID(), n, intervals)
	}
}

// TestPromiseGC rotates the coordinator over every process and asserts
// on every replica — coordinator, fast-quorum member and the one that
// only ever gets MPayload + MCommit — that nothing per-command survives
// quiescence.
func TestPromiseGC(t *testing.T) {
	t.Run("single-shard", func(t *testing.T) {
		topo := lineTopo(t, 3, 1, 1)
		procs, net := makeNetCfg(topo, gcConfig())
		for i := 0; i < 30; i++ {
			p := procs[at(topo, i%3, 0)]
			net.Submit(p.ID(), command.NewPut(p.NextID(), "k", []byte{byte(i)}))
			net.Drain(0)
		}
		net.Settle(8, 5*time.Millisecond)
		for _, p := range procs {
			if v, _ := p.Store().Get("k"); len(v) != 1 || v[0] != 29 {
				t.Errorf("process %d: store holds %v, want the last put", p.ID(), v)
			}
			assertCollected(t, p, 3)
		}
	})
	t.Run("cross-shard", func(t *testing.T) {
		topo := lineTopo(t, 3, 1, 2)
		procs, net := makeNetCfg(topo, gcConfig())
		keys := []command.Key{findKey(topo, 0), findKey(topo, 1)}
		// Every process mints alternately a command on its own shard and
		// one on both.
		const rounds = 5
		for i := 0; i < rounds; i++ {
			for _, pi := range topo.Processes() {
				p := procs[pi.ID]
				v := []byte{byte(i)}
				net.Submit(p.ID(), command.NewPut(p.NextID(), keys[p.Shard()], v))
				net.Submit(p.ID(), command.New(p.NextID(),
					command.Op{Kind: command.Put, Key: keys[0], Value: v},
					command.Op{Kind: command.Put, Key: keys[1], Value: v}))
				net.Drain(0)
			}
		}
		net.Settle(8, 5*time.Millisecond)
		for _, p := range procs {
			// The three sources of the own shard are dense: one interval
			// each. Of a sibling-shard source a replica sees only the
			// cross-shard half, every other sequence number: one interval
			// per command, the residue a cross-shard command leaves.
			assertCollected(t, p, 3+3*rounds)
		}
	})
}

// TestCollectionWaitsForSlowestReplica pins the rule: a command is
// collected only once every rank's executed watermark has passed it, so
// a replica that has not executed it yet can still be answered.
func TestCollectionWaitsForSlowestReplica(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, net := makeNetCfg(topo, gcConfig())
	A, C := at(topo, 0, 0), at(topo, 2, 0)
	// C — outside A's fast quorum — is cut off: it never learns the
	// commands, so its watermark stays at zero.
	net.Drop = func(e testnet.Env) bool { return e.To == C || e.From == C }
	var cmds []*command.Command
	for i := 0; i < 5; i++ {
		c := command.NewPut(procs[A].NextID(), "k", []byte{byte(i)})
		cmds = append(cmds, c)
		net.Submit(A, c)
		net.Drain(0)
	}
	net.Settle(6, 5*time.Millisecond)
	for _, pid := range []ids.ProcessID{A, at(topo, 1, 0)} {
		p := procs[pid]
		if len(p.cmds) != len(cmds) || p.executed.len() != len(cmds) {
			t.Fatalf("process %d: %d commands, %d logged; all %d must be retained while C lags",
				pid, len(p.cmds), p.executed.len(), len(cmds))
		}
		if wm, holder := p.collectLimit(); wm != (TSWatermark{}) || holder != procs[C].Rank() {
			t.Errorf("process %d: collection limit %+v held by rank %d, want zero held by C", pid, wm, holder)
		}
		live, lag, holder := p.GCStats()
		if live != len(cmds) || lag == 0 || holder != procs[C].Rank() {
			t.Errorf("process %d: GCStats = (%d, %d, %d), want %d live and a lag held by C", pid, live, lag, holder, len(cmds))
		}
	}
	// C comes back and asks for what it missed; the others still have it.
	net.Drop = nil
	for _, c := range cmds {
		net.Deliver(C, A, &MCommitRequest{ID: c.ID})
	}
	net.Drain(0)
	net.Settle(8, 5*time.Millisecond)
	for _, p := range procs {
		assertCollected(t, p, 1)
		if _, lag, _ := p.GCStats(); lag != 0 {
			t.Errorf("process %d: gc lag %d after quiescence", p.ID(), lag)
		}
	}
}

// lateMessages returns one message of every per-command kind for a
// command that already ran, as a slow link or a commit replay would
// deliver them.
func lateMessages(c *command.Command, q Quorums, shard ids.ShardID) []proto.Message {
	return []proto.Message{
		&MPayload{ID: c.ID, Cmd: c, Quorums: q},
		&MPropose{ID: c.ID, Cmd: c, Quorums: q, TS: 1},
		&MCommit{ID: c.ID, Shard: shard, TS: 1, Attached: []RankTS{{Rank: 1, TS: 1}}},
		&MConsensus{ID: c.ID, TS: 9, Ballot: 7},
		&MBump{ID: c.ID, TS: 50},
		&MStable{ID: c.ID, Shard: shard},
		&MRec{ID: c.ID, Ballot: 7},
		&MCommitRequest{ID: c.ID},
	}
}

// TestLateMessagesAfterCollection replays every per-command message at
// every replica after the command was collected: none may recreate
// state, answer, move the clock or execute anything again.
func TestLateMessagesAfterCollection(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo := lineTopo(t, 3, 1, shards)
			procs, net := makeNetCfg(topo, gcConfig())
			coord := procs[at(topo, 1, 0)]
			ops := []command.Op{{Kind: command.Put, Key: findKey(topo, 0), Value: []byte("v")}}
			if shards == 2 {
				ops = append(ops, command.Op{Kind: command.Put, Key: findKey(topo, 1), Value: []byte("v")})
			}
			c := command.New(coord.NextID(), ops...)
			var quorums Quorums
			net.Hold = func(e testnet.Env) bool {
				if m, ok := e.Msg.(*MPropose); ok {
					quorums = m.Quorums
				}
				return false
			}
			net.Submit(coord.ID(), c)
			net.Drain(0)
			net.Settle(8, 5*time.Millisecond)
			for _, p := range procs {
				p.Drain()
				assertCollected(t, p, 1)
			}
			for _, p := range procs {
				clock := p.Clock()
				for _, m := range lateMessages(c, quorums, p.Shard()) {
					from := coord.ID()
					if acts := p.Handle(from, m); len(acts) != 0 {
						t.Errorf("process %d: late %T produced %d actions", p.ID(), m, len(acts))
					}
					if len(p.cmds) != 0 {
						t.Fatalf("process %d: late %T recreated state", p.ID(), m)
					}
				}
				if ex := p.Drain(); len(ex) != 0 {
					t.Errorf("process %d: late messages executed %d commands", p.ID(), len(ex))
				}
				if p.Clock() != clock {
					t.Errorf("process %d: late messages moved the clock %d -> %d", p.ID(), clock, p.Clock())
				}
				assertCollected(t, p, 1)
			}
		})
	}
}

// TestLateAttachedPromiseAfterCollection is the regression for the
// buffered-late-promise leak: a peer keeps gossiping its attached
// promise until it learns the command executed everywhere, so the
// promise routinely arrives after the receiver collected the command.
// It must be incorporated, not parked — parked, it would sit in the
// tracker for ever and draw an MCommitRequest nobody can answer.
func TestLateAttachedPromiseAfterCollection(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, net := makeNetCfg(topo, gcConfig())
	A, B := procs[at(topo, 0, 0)], procs[at(topo, 1, 0)]
	c := command.NewPut(A.NextID(), "k", nil)
	net.Submit(A.ID(), c)
	net.Drain(0)
	net.Settle(8, 5*time.Millisecond)
	assertCollected(t, A, 1)

	// Rank B's promise for timestamp 40, far above A's frontier for B.
	late := &MPromises{Rank: B.Rank(), Attached: []AttachedWire{{ID: c.ID, TS: 40}}}
	now := 100 * time.Millisecond
	for i := 0; i < 4; i++ {
		for _, a := range A.Handle(B.ID(), late) {
			if _, is := a.Msg.(*MCommitRequest); is {
				t.Fatalf("round %d: MCommitRequest for a collected command", i)
			}
		}
		now += 2 * A.cfg.CommitRequestDelay
		A.Tick(now)
	}
	if !A.tracker.IsCommitted(c.ID) {
		t.Error("collected command no longer known as committed")
	}
	assertCollected(t, A, 1)
	if A.tracker.Max(B.Rank()) != 40 {
		t.Errorf("late attached promise not incorporated: max for rank %d is %d", B.Rank(), A.tracker.Max(B.Rank()))
	}
}

// TestPeriodicRecoveryVisitsPendingInDotOrder checks that recovery acts
// on exactly the overdue pending commands, in Dot order whatever order
// they became known in, and drops finished commands from its queue.
func TestPeriodicRecoveryVisitsPendingInDotOrder(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, net := makeNetCfg(topo, Config{RecoveryTimeout: 20 * time.Millisecond, RetainLog: true})
	A := procs[at(topo, 0, 0)]
	// Ten commands finish; they must not be visited.
	for i := 0; i < 10; i++ {
		net.Submit(A.ID(), command.NewPut(A.NextID(), "k", nil))
	}
	net.Drain(0)
	// Four more reach A as bare payloads, out of Dot order, and stay
	// pending.
	stuck := []ids.Dot{{Source: 3, Seq: 7}, {Source: 2, Seq: 9}, {Source: 3, Seq: 2}, {Source: 2, Seq: 1}}
	for _, id := range stuck {
		A.Handle(id.Source, &MPayload{ID: id, Cmd: command.NewPut(id, "k", nil), Quorums: Quorums{0: {id.Source, A.ID()}}})
	}
	A.now = 50 * time.Millisecond
	var got []ids.Dot
	for _, a := range A.periodicRecovery() {
		if m, ok := a.Msg.(*MRec); ok {
			got = append(got, m.ID)
		}
	}
	want := []ids.Dot{{Source: 2, Seq: 1}, {Source: 2, Seq: 9}, {Source: 3, Seq: 2}, {Source: 3, Seq: 7}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if len(A.pendingQ) != len(stuck) {
		t.Errorf("pending queue holds %d entries, want the %d stuck commands", len(A.pendingQ), len(stuck))
	}
}
