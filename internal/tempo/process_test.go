package tempo

import (
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/testnet"
	"tempo/internal/topology"
)

// lineTopo builds r sites on a line with RTT 2ms per hop, so the fast
// quorum of the site-0 process is deterministic: the next sites in order.
func lineTopo(t *testing.T, r, f, shards int) *topology.Topology {
	t.Helper()
	names := make([]string, r)
	rtt := make([][]time.Duration, r)
	for i := range names {
		names[i] = string(rune('A' + i))
		rtt[i] = make([]time.Duration, r)
		for j := range rtt[i] {
			d := i - j
			if d < 0 {
				d = -d
			}
			rtt[i][j] = time.Duration(d) * 2 * time.Millisecond
		}
	}
	topo, err := topology.New(topology.Config{
		SiteNames: names,
		RTT:       rtt,
		NumShards: shards,
		F:         f,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// makeNet builds one Tempo replica per process in the topology plus a
// testnet pump. Recovery is effectively disabled unless cfg says
// otherwise, and collected commands keep their cmdInfo for inspection.
func makeNet(t *testing.T, topo *topology.Topology, cfg Config) (map[ids.ProcessID]*Process, *testnet.Net) {
	t.Helper()
	if cfg.RecoveryTimeout == 0 {
		cfg.RecoveryTimeout = time.Hour
	}
	cfg.RetainLog = true
	return makeNetCfg(topo, cfg)
}

// makeNetCfg is makeNet with cfg taken as given.
func makeNetCfg(topo *topology.Topology, cfg Config) (map[ids.ProcessID]*Process, *testnet.Net) {
	procs := make(map[ids.ProcessID]*Process)
	var reps []proto.Replica
	for _, pi := range topo.Processes() {
		p := New(pi.ID, topo, cfg)
		procs[pi.ID] = p
		reps = append(reps, p)
	}
	return procs, testnet.New(reps...)
}

// ownAttached returns the attached promise p holds for a command: 0 if it
// never proposed, or collection folded the promise away.
func (p *Process) ownAttached(id ids.Dot) uint64 {
	if ci := p.cmds[id]; ci != nil {
		return ci.attachedMine
	}
	return 0
}

func at(topo *topology.Topology, site int, shard int) ids.ProcessID {
	return topo.ProcessAt(ids.SiteID(site), ids.ShardID(shard))
}

func TestSingleCommandCommitsAndExecutes(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	procs, net := makeNet(t, topo, Config{})
	a := at(topo, 0, 0)
	cmd := command.NewPut(procs[a].NextID(), "x", []byte("v"))
	net.Submit(a, cmd)
	net.Drain(0)
	net.Settle(3, 5*time.Millisecond)

	for id, p := range procs {
		ci := p.cmds[cmd.ID]
		if ci == nil || ci.phase != PhaseExecute {
			t.Fatalf("process %d: command not executed (phase %v)", id, phaseOf(ci))
		}
		if v, ok := p.Store().Get("x"); !ok || string(v) != "v" {
			t.Errorf("process %d: store missing value", id)
		}
	}
	if fast, slow, _ := procs[a].Stats(); fast != 1 || slow != 0 {
		t.Errorf("expected 1 fast path commit, got fast=%d slow=%d", fast, slow)
	}
}

func phaseOf(ci *cmdInfo) Phase {
	if ci == nil {
		return PhaseStart
	}
	return ci.phase
}

func TestSequentialCommandsTotalOrder(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	procs, net := makeNet(t, topo, Config{})
	// Concurrent conflicting submissions from every site.
	var cmds []*command.Command
	for site := 0; site < 5; site++ {
		p := procs[at(topo, site, 0)]
		for k := 0; k < 4; k++ {
			c := command.NewPut(p.NextID(), "hot", []byte{byte(site), byte(k)})
			cmds = append(cmds, c)
			net.Submit(p.ID(), c)
		}
	}
	net.Drain(0)
	net.Settle(5, 5*time.Millisecond)

	// Every process must execute every command, in the same order.
	var ref []ids.Dot
	for id, p := range procs {
		var got []ids.Dot
		for _, e := range p.Drain() {
			got = append(got, e.Cmd.ID)
		}
		if len(got) != len(cmds) {
			t.Fatalf("process %d executed %d of %d commands", id, len(got), len(cmds))
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("process %d diverges at %d: %v vs %v", id, i, got[i], ref[i])
			}
		}
	}

	// Property 1: all processes agree on each command's timestamp.
	for _, c := range cmds {
		var ts uint64
		for id, p := range procs {
			got := p.cmds[c.ID].finalTS
			if ts == 0 {
				ts = got
			} else if got != ts {
				t.Fatalf("process %d: ts(%v)=%d, others %d", id, c.ID, got, ts)
			}
		}
	}
}

func TestProposalGeneratesPromises(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, _ := makeNet(t, topo, Config{})
	p := procs[at(topo, 0, 0)]

	// First proposal from clock 0: no detached promises, attached at 1.
	id1 := p.NextID()
	if got := p.proposal(id1, p.info(id1), 0); got != 1 {
		t.Fatalf("proposal = %d, want 1", got)
	}
	if p.ownAttached(id1) != 1 || p.attached.len() != 1 {
		t.Error("attached promise missing")
	}
	if p.detached.Len() != 0 {
		t.Errorf("unexpected detached promises: %v", p.detached)
	}

	// Proposal forced to 6 from clock 1: detached 2..5, attached 6.
	id2 := p.NextID()
	if got := p.proposal(id2, p.info(id2), 6); got != 6 {
		t.Fatalf("proposal = %d, want 6", got)
	}
	if !p.detached.ContainsRange(2, 5) || p.detached.Contains(6) {
		t.Errorf("detached = %v, want exactly 2-5", p.detached)
	}
	if p.clock != 6 {
		t.Errorf("clock = %d, want 6", p.clock)
	}
}

func TestBumpGeneratesDetachedIncludingTarget(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, _ := makeNet(t, topo, Config{})
	p := procs[at(topo, 0, 0)]
	p.bump(4)
	if !p.detached.ContainsRange(1, 4) || p.detached.Len() != 4 {
		t.Errorf("detached = %v, want exactly 1-4", p.detached)
	}
	p.bump(2) // no-op: clock already past
	if p.clock != 4 {
		t.Errorf("clock = %d, want 4", p.clock)
	}
}

func TestReadYourWrite(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, net := makeNet(t, topo, Config{})
	a := at(topo, 0, 0)
	p := procs[a]
	net.Submit(a, command.NewPut(p.NextID(), "k", []byte("v1")))
	net.Drain(0)
	net.Settle(3, 5*time.Millisecond)
	read := command.NewGet(p.NextID(), "k")
	net.Submit(a, read)
	net.Drain(0)
	net.Settle(3, 5*time.Millisecond)
	var res *command.Result
	for _, e := range p.Drain() {
		if e.Cmd.ID == read.ID {
			res = e.Result
		}
	}
	if res == nil || len(res.Values) != 1 || string(res.Values[0]) != "v1" {
		t.Fatalf("read result = %+v, want v1", res)
	}
}

func TestSubmitMultiShard(t *testing.T) {
	topo := lineTopo(t, 3, 1, 2)
	procs, net := makeNet(t, topo, Config{})
	a := at(topo, 0, 0)
	p := procs[a]

	// Build a command touching both shards.
	k0 := findKey(topo, 0)
	k1 := findKey(topo, 1)
	c := command.New(p.NextID(),
		command.Op{Kind: command.Put, Key: k0, Value: []byte("v0")},
		command.Op{Kind: command.Put, Key: k1, Value: []byte("v1")},
	)
	net.Submit(a, c)
	net.Drain(0)
	net.Settle(5, 5*time.Millisecond)

	for id, proc := range procs {
		ci := proc.cmds[c.ID]
		if ci == nil || ci.phase != PhaseExecute {
			t.Fatalf("process %d (shard %d): phase %v, want execute", id, proc.Shard(), phaseOf(ci))
		}
	}
	// Shard stores only hold their own keys.
	if v, ok := procs[at(topo, 0, 0)].Store().Get(k0); !ok || string(v) != "v0" {
		t.Error("shard 0 store missing k0")
	}
	if _, ok := procs[at(topo, 0, 0)].Store().Get(k1); ok {
		t.Error("shard 0 store must not hold shard-1 key")
	}
	if v, ok := procs[at(topo, 0, 1)].Store().Get(k1); !ok || string(v) != "v1" {
		t.Error("shard 1 store missing k1")
	}
}

// findKey returns a key hashed to the given shard.
func findKey(topo *topology.Topology, shard ids.ShardID) command.Key {
	for i := 0; ; i++ {
		k := command.Key("key-" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if topo.ShardOf(k) == shard {
			return k
		}
	}
}

func TestCrashedProcessIsSilent(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, _ := makeNet(t, topo, Config{})
	p := procs[at(topo, 0, 0)]
	p.Crash()
	if acts := p.Submit(command.NewPut(ids.Dot{Source: p.ID(), Seq: 1}, "k", nil)); acts != nil {
		t.Error("crashed process must not act on submit")
	}
	if acts := p.Tick(time.Second); acts != nil {
		t.Error("crashed process must not tick")
	}
}
