package tempo

import (
	"fmt"
	"math/rand"
	"testing"

	"tempo/internal/command"
	"tempo/internal/testnet"
)

// TestProperty3CommitTimestamps checks Property 3 of the paper on every
// MCommit observed in failure-free random schedules: the committed
// timestamp is the maximum over timestamp proposals from at least
// ⌊r/2⌋+1 processes. (The piggybacked Attached list carries exactly the
// fast quorum's proposals, of size ⌊r/2⌋+f ≥ ⌊r/2⌋+1.)
func TestProperty3CommitTimestamps(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, f := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d_f%d", seed, f), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				topo := lineTopo(t, 5, f, 1)
				procs, net := makeNet(t, topo, Config{})
				net.Rng = rng

				commits := 0
				net.Hold = func(e testnet.Env) bool {
					mc, ok := e.Msg.(*MCommit)
					if !ok {
						return false
					}
					commits++
					if len(mc.Attached) < 5/2+1 {
						t.Errorf("MCommit(%v) carries %d proposals, want >= majority 3",
							mc.ID, len(mc.Attached))
					}
					var max uint64
					seen := map[uint64]bool{}
					for _, a := range mc.Attached {
						if seen[uint64(a.Rank)] {
							t.Errorf("MCommit(%v): duplicate rank %d", mc.ID, a.Rank)
						}
						seen[uint64(a.Rank)] = true
						if a.TS > max {
							max = a.TS
						}
					}
					if mc.TS != max {
						t.Errorf("MCommit(%v): ts=%d but max proposal=%d (Property 3)",
							mc.ID, mc.TS, max)
					}
					return false
				}

				for i := 0; i < 20; i++ {
					p := procs[at(topo, rng.Intn(5), 0)]
					net.Submit(p.ID(), command.NewPut(p.NextID(), command.Key(fmt.Sprintf("k%d", rng.Intn(2))), nil))
					for s := 0; s < rng.Intn(12); s++ {
						net.Step()
					}
				}
				net.Drain(0)
				if commits == 0 {
					t.Fatal("no commits observed")
				}
			})
		}
	}
}

// TestClockMonotonicity checks that a process's clock never regresses
// and that every proposal strictly exceeds the previous clock value
// (uniqueness of own attached promises).
func TestClockMonotonicity(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := lineTopo(t, 5, 1, 1)
		procs, net := makeNet(t, topo, Config{})
		net.Rng = rng
		prev := map[*Process]uint64{}
		for i := 0; i < 25; i++ {
			p := procs[at(topo, rng.Intn(5), 0)]
			net.Submit(p.ID(), command.NewPut(p.NextID(), "hot", nil))
			for s := 0; s < rng.Intn(8); s++ {
				net.Step()
			}
			for _, q := range procs {
				if q.Clock() < prev[q] {
					t.Fatalf("clock regressed at %d: %d -> %d", q.ID(), prev[q], q.Clock())
				}
				prev[q] = q.Clock()
			}
		}
		net.Drain(0)
		// Own attached promises are pairwise distinct timestamps.
		for _, q := range procs {
			seen := map[uint64]bool{}
			for _, aw := range q.attached.live() {
				if seen[aw.TS] {
					t.Fatalf("process %d reused timestamp %d", q.ID(), aw.TS)
				}
				seen[aw.TS] = true
			}
		}
	}
}
