package tempo

import (
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
)

// TestAttachedGossipQueue pins the queue that replaced the id-sorted
// view and its full sweep: MPromises carries the live attached promises
// oldest (lowest timestamp) first, capped, and a broadcast drops exactly
// the folded entries it scans past.
func TestAttachedGossipQueue(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	p := New(at(topo, 0, 0), topo, Config{})

	dots := []ids.Dot{
		{Source: 3, Seq: 5}, {Source: 1, Seq: 9}, {Source: 2, Seq: 1},
		{Source: 1, Seq: 2}, {Source: 5, Seq: 7}, {Source: 2, Seq: 4},
	}
	for _, d := range dots {
		p.proposal(d, p.info(d), 0)
	}
	gossip := func() []AttachedWire {
		t.Helper()
		acts := p.broadcastPromises()
		if len(acts) != 1 {
			t.Fatalf("broadcastPromises returned %d actions", len(acts))
		}
		return acts[0].Msg.(*MPromises).Attached
	}
	got := gossip()
	if len(got) != len(dots) {
		t.Fatalf("broadcast carries %d attached, want %d", len(got), len(dots))
	}
	for i, aw := range got {
		if aw.ID != dots[i] || aw.TS != uint64(i+1) {
			t.Fatalf("entry %d = %+v, want %v at ts %d", i, aw, dots[i], i+1)
		}
	}

	// Fold the promises of dots 0, 1 and 3, as collect does.
	for _, i := range []int{0, 1, 3} {
		p.cmds[dots[i]].attachedMine = 0
	}
	if got := p.gossipAttached(2); len(got) != 2 || got[0].ID != dots[2] || got[1].ID != dots[4] {
		t.Fatalf("capped gossip = %+v, want dots 2 and 4", got)
	}
	// The scan stopped at the cap: three dead entries went, the two live
	// ones it passed and the unscanned tail stay.
	if p.attached.len() != 3 {
		t.Fatalf("queue holds %d entries after the capped scan, want 3", p.attached.len())
	}
	if got := gossip(); len(got) != 3 || got[2].ID != dots[5] {
		t.Fatalf("full gossip = %+v, want dots 2, 4, 5", got)
	}
	assertAttachedQueueAgrees(t, p)
}

// TestAttachedQueueSurvivesWorkload runs a real multi-site workload to
// completion and checks every replica's queue against its live promises
// once collection has folded them away.
func TestAttachedQueueSurvivesWorkload(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	procs, net := makeNet(t, topo, Config{})
	for site := 0; site < 5; site++ {
		p := procs[at(topo, site, 0)]
		for k := 0; k < 4; k++ {
			net.Submit(p.ID(), command.NewPut(p.NextID(), "hot", []byte{byte(site), byte(k)}))
		}
	}
	net.Drain(0)
	net.Settle(5, 5*time.Millisecond)
	for _, p := range procs {
		assertAttachedQueueAgrees(t, p)
		if n := p.attached.len(); n != 0 {
			t.Errorf("process %d: %d attached promises survived collection", p.ID(), n)
		}
	}
}

// assertAttachedQueueAgrees checks the gossip queue after a broadcast:
// ascending timestamps, and its live entries are exactly the commands
// holding an attached promise.
func assertAttachedQueueAgrees(t *testing.T, p *Process) {
	t.Helper()
	p.broadcastPromises()
	live := 0
	var prev uint64
	for i, aw := range p.attached.live() {
		if aw.TS <= prev {
			t.Fatalf("process %d: queue out of order at %d: ts %d after %d", p.ID(), i, aw.TS, prev)
		}
		prev = aw.TS
		if p.ownAttached(aw.ID) == aw.TS {
			live++
		}
	}
	held := 0
	for _, ci := range p.cmds {
		if ci.attachedMine != 0 {
			held++
		}
	}
	if live != held {
		t.Fatalf("process %d: queue has %d live entries, commands hold %d", p.ID(), live, held)
	}
}

// TestMCommitAttachedSortedByRank pins the §3.2 piggyback layout: the
// attached promises broadcast in MCommit are ordered by rank (the
// rank-indexed proposal slice guarantees it by construction).
func TestMCommitAttachedSortedByRank(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	p := New(at(topo, 0, 0), topo, Config{})
	id := ids.Dot{Source: p.ID(), Seq: 1}
	ci := &cmdInfo{
		cmd:       command.NewPut(id, "k", []byte("v")),
		shards:    []ids.ShardID{0},
		proposals: []uint64{7, 0, 9, 8, 9}, // rank 2 never answered
	}
	acts := p.sendCommit(id, ci, 9)
	if len(acts) != 1 {
		t.Fatalf("sendCommit returned %d actions", len(acts))
	}
	mc := acts[0].Msg.(*MCommit)
	if len(mc.Attached) != 4 {
		t.Fatalf("MCommit carries %d attached, want 4", len(mc.Attached))
	}
	for i := 1; i < len(mc.Attached); i++ {
		if mc.Attached[i-1].Rank >= mc.Attached[i].Rank {
			t.Fatalf("MCommit.Attached not sorted by rank: %v", mc.Attached)
		}
	}
}
