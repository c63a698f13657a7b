package promise

import (
	"testing"

	"tempo/internal/ids"
)

func dot(s, q int) ids.Dot { return ids.Dot{Source: ids.ProcessID(s), Seq: uint64(q)} }

// TestFigure2Stability encodes Figure 2 of the paper: r = 3 processes
// A, B, C (ranks 1, 2, 3) and promise sets
//
//	X = {<A,1>, <C,3>}
//	Y = {<B,1>, <B,2>, <B,3>}
//	Z = {<A,2>, <C,1>, <C,2>}
//
// with the stable timestamps the paper lists for each combination.
func TestFigure2Stability(t *testing.T) {
	const A, B, C = ids.Rank(1), ids.Rank(2), ids.Rank(3)
	type p struct {
		rank ids.Rank
		ts   uint64
	}
	X := []p{{A, 1}, {C, 3}}
	Y := []p{{B, 1}, {B, 2}, {B, 3}}
	Z := []p{{A, 2}, {C, 1}, {C, 2}}

	cases := []struct {
		name string
		sets [][]p
		want uint64
	}{
		{"X", [][]p{X}, 0},
		{"Y", [][]p{Y}, 0},
		{"Z", [][]p{Z}, 0},
		{"X+Y", [][]p{X, Y}, 1},
		{"X+Z", [][]p{X, Z}, 2},
		{"Y+Z", [][]p{Y, Z}, 2},
		{"X+Y+Z", [][]p{X, Y, Z}, 3},
	}
	for _, c := range cases {
		tr := NewTracker(3)
		for _, set := range c.sets {
			for _, pr := range set {
				tr.AddDetached(pr.rank, pr.ts, pr.ts)
			}
		}
		if got := tr.Stable(); got != c.want {
			t.Errorf("%s: stable = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAttachedBufferedUntilCommit(t *testing.T) {
	tr := NewTracker(3)
	id := dot(1, 1)
	// Majority promises up to 1, but rank 2's promise is attached to an
	// uncommitted command: it must not count.
	tr.AddDetached(1, 1, 1)
	if incorporated := tr.AddAttached(Attached{Owner: 2, ID: id, TS: 1}); incorporated {
		t.Fatal("attached promise for uncommitted command must be buffered")
	}
	if tr.Stable() != 0 {
		t.Fatalf("stable = %d, want 0 before commit", tr.Stable())
	}
	tr.Committed(id)
	if tr.Stable() != 1 {
		t.Fatalf("stable = %d, want 1 after commit", tr.Stable())
	}
	// A later attached promise for an already committed command is
	// incorporated immediately.
	if incorporated := tr.AddAttached(Attached{Owner: 3, ID: id, TS: 1}); !incorporated {
		t.Fatal("attached promise for committed command must be incorporated")
	}
}

func TestPendingIDs(t *testing.T) {
	tr := NewTracker(3)
	a, b := dot(1, 1), dot(2, 1)
	tr.AddAttached(Attached{Owner: 1, ID: b, TS: 2})
	tr.AddAttached(Attached{Owner: 1, ID: a, TS: 1})
	got := tr.PendingIDs()
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("PendingIDs = %v", got)
	}
	tr.Committed(a)
	if got := tr.PendingIDs(); len(got) != 1 || got[0] != b {
		t.Fatalf("PendingIDs after commit = %v", got)
	}
}

func TestStableMajorityR5(t *testing.T) {
	tr := NewTracker(5)
	// 3 of 5 processes have everything up to 7; stability = 7 regardless
	// of the stragglers.
	for rank := ids.Rank(1); rank <= 3; rank++ {
		tr.AddDetached(rank, 1, 7)
	}
	tr.AddDetached(4, 1, 2)
	if got := tr.Stable(); got != 7 {
		t.Fatalf("stable = %d, want 7", got)
	}
	// With only 2 of 5 at 7, stability is bounded by the third highest.
	tr2 := NewTracker(5)
	tr2.AddDetached(1, 1, 7)
	tr2.AddDetached(2, 1, 7)
	tr2.AddDetached(3, 1, 4)
	if got := tr2.Stable(); got != 4 {
		t.Fatalf("stable = %d, want 4", got)
	}
}

func TestHighestContiguousPerRank(t *testing.T) {
	tr := NewTracker(3)
	tr.AddDetached(1, 1, 3)
	tr.AddDetached(1, 5, 6)
	if got := tr.HighestContiguous(1); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
	if got := tr.HighestContiguous(2); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}

// TestForget pins what survives a command's per-command bookkeeping:
// the id stays known as committed, so a late attached promise is
// incorporated and a late Committed is a no-op, while the maps empty and
// a source forgotten in minting order costs one interval.
func TestForget(t *testing.T) {
	tr := NewTracker(3)
	for seq := uint64(1); seq <= 100; seq++ {
		id := dot(1, int(seq))
		tr.AddAttached(Attached{Owner: 1, ID: id, TS: seq})
		tr.Committed(id)
		tr.Forget(id)
	}
	tr.Forget(dot(2, 7)) // a source seen once
	if c, p := tr.InFlight(); c != 0 || p != 0 {
		t.Fatalf("InFlight = (%d, %d) after forgetting everything", c, p)
	}
	if n := tr.ForgottenIntervals(); n != 2 {
		t.Fatalf("forgotten set has %d intervals, want 2", n)
	}
	id := dot(1, 50)
	if !tr.Forgotten(id) || !tr.IsCommitted(id) {
		t.Fatal("forgotten command must stay known as committed")
	}
	if tr.Forgotten(dot(1, 101)) || tr.IsCommitted(dot(2, 6)) {
		t.Fatal("ids never forgotten reported as forgotten")
	}
	if !tr.AddAttached(Attached{Owner: 2, ID: id, TS: 9}) {
		t.Fatal("late attached promise for a forgotten command must be incorporated")
	}
	tr.Committed(id)
	if c, p := tr.InFlight(); c != 0 || p != 0 {
		t.Fatalf("late messages recreated bookkeeping: InFlight = (%d, %d)", c, p)
	}
	if got := tr.Max(2); got != 9 {
		t.Fatalf("late promise not recorded: max for rank 2 is %d", got)
	}
}
