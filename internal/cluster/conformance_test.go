package cluster_test

import (
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/cluster/conformancetest"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// conformanceReplica arms Tempo's recovery timers aggressively: the
// partition scenarios depend on recovery to re-drive rounds that stalled
// while a replica was cut off.
func conformanceReplica(id ids.ProcessID, topo *topology.Topology) *tempo.Process {
	return tempo.New(id, topo, tempo.Config{PromiseInterval: time.Millisecond, RecoveryTimeout: 250 * time.Millisecond})
}

// TestConformance runs the shared conformance suite over Tempo, the
// engine the cluster runtime ships.
func TestConformance(t *testing.T) {
	t.Run("tempo", func(t *testing.T) {
		conformancetest.Run(t, conformancetest.Engine{
			Name: "tempo",
			New: func(id ids.ProcessID, topo *topology.Topology) cluster.Replica {
				return conformanceReplica(id, topo)
			},
		})
	})
}

// brokenReplica is Tempo with a sabotaged apply pipeline: DrainStable
// buffers execution-stable commands and releases adjacent pairs
// swapped, so one replica applies a different order than everyone else.
// Only called under the node's protocol lock, so pend needs no lock of
// its own.
type brokenReplica struct {
	*tempo.Process
	pend []proto.Stable
}

func (b *brokenReplica) DrainStable() []proto.Stable {
	b.pend = append(b.pend, b.Process.DrainStable()...)
	var out []proto.Stable
	for len(b.pend) >= 2 {
		out = append(out, b.pend[1], b.pend[0])
		b.pend = b.pend[2:]
	}
	return out
}

// TestConformanceCatchesReordering proves the suite has teeth: a
// replica 1 that swaps adjacent stable commands must fail the
// linearizability scenario (its log diverges from the other replicas').
func TestConformanceCatchesReordering(t *testing.T) {
	t.Parallel()
	e := conformancetest.Engine{
		Name: "broken-swap",
		New: func(id ids.ProcessID, topo *topology.Topology) cluster.Replica {
			p := conformanceReplica(id, topo)
			if id == 1 {
				return &brokenReplica{Process: p}
			}
			return p
		},
	}
	err := conformancetest.Linearizability(e)
	if err == nil {
		t.Fatal("conformance suite passed a replica that reorders execution")
	}
	t.Logf("suite caught the broken replica: %v", err)
}

// muteReplica is Tempo that silently drops every client submission — a
// liveness hole rather than a safety one.
type muteReplica struct {
	*tempo.Process
}

func (m *muteReplica) Submit(cmd *command.Command) []proto.Action { return nil }

// TestConformanceCatchesMutedSubmit proves the suite also catches
// liveness failures: the deadline scenario's post-heal writes go
// through the mute replica, never commit, and fail the scenario.
func TestConformanceCatchesMutedSubmit(t *testing.T) {
	t.Parallel()
	e := conformancetest.Engine{
		Name: "broken-mute",
		New: func(id ids.ProcessID, topo *topology.Topology) cluster.Replica {
			p := conformanceReplica(id, topo)
			if id == 3 {
				return &muteReplica{Process: p}
			}
			return p
		},
	}
	err := conformancetest.Deadline(e)
	if err == nil {
		t.Fatal("conformance suite passed a replica that drops submissions")
	}
	t.Logf("suite caught the mute replica: %v", err)
}
