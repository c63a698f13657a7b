package tempo

import (
	"fmt"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/testnet"
	"tempo/internal/topology"
)

// TestAckCarriesTrailingDetachedRun pins which message carries a
// fast-quorum member's commit-driven promises to a coordinator. With
// every RTT equal, the lowest-id tie-break gives process 1 the fast
// quorum {1,2} and process 3 the fast quorum {3,1}: process 2 never
// proposes for process 3's commands, yet every one of their commits
// bumps its clock. Process 1's commands are stable at process 1 only
// once it knows those bumps, and no Tick is ever called here, so they
// must arrive on process 2's next MProposeAck rather than in the
// MPromises gossip.
func TestAckCarriesTrailingDetachedRun(t *testing.T) {
	topo, err := topology.New(topology.Config{
		SiteNames: []string{"a", "b", "c"},
		RTT:       [][]time.Duration{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}},
		F:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fqSize := topology.TempoFastQuorumSize(topo.R(), topo.F())
	if fq := fmt.Sprint(topo.FastQuorum(1, fqSize), topo.FastQuorum(3, fqSize)); fq != "[1 2] [3 1]" {
		t.Fatalf("fast quorums of processes 1 and 3 are %s, want [1 2] [3 1]", fq)
	}
	procs, net := makeNet(t, topo, Config{})
	p1, p2, p3 := procs[1], procs[2], procs[3]

	acks := 0
	net.Hold = func(e testnet.Env) bool {
		m, ok := e.Msg.(*MProposeAck)
		if !ok || e.From != p2.ID() {
			return false
		}
		// Hold runs as the ack leaves process 2, so its detached set is
		// the one the ack was built from.
		if m.DetachedLo == 0 {
			t.Errorf("ack for %v carries no detached run", m.ID)
		} else if m.DetachedHi != m.TS-1 || !p2.detached.ContainsRange(m.DetachedLo, m.DetachedHi) {
			t.Errorf("ack for %v carries [%d, %d] below proposal %d; sender's detached set is %v",
				m.ID, m.DetachedLo, m.DetachedHi, m.TS, p2.detached)
		}
		acks++
		return false
	}
	for i := 0; i < 3; i++ {
		c3 := command.NewPut(p3.NextID(), "k3", []byte{byte(i)})
		net.Submit(p3.ID(), c3)
		net.Drain(0)
		c1 := command.NewPut(p1.NextID(), "k1", []byte{byte(i)})
		net.Submit(p1.ID(), c1)
		net.Drain(0)
		for _, id := range []ids.Dot{c3.ID, c1.ID} {
			if ph := phaseOf(p1.cmds[id]); ph != PhaseExecute {
				t.Fatalf("round %d: %v is %v at process 1, want executed without any MPromises", i, id, ph)
			}
		}
	}
	if acks != 3 {
		t.Errorf("process 2 sent %d acks, want one per command of process 1", acks)
	}
}
