package promise

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddRangeMerging(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(5, 7)
	s.AddRange(1, 2)
	if s.String() != "{1-2 5-7}" {
		t.Fatalf("got %s", s)
	}
	s.AddRange(3, 4) // adjacency merges everything
	if s.String() != "{1-7}" {
		t.Fatalf("got %s", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddOverlapping(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(10, 20)
	s.AddRange(15, 25)
	s.AddRange(5, 12)
	if s.String() != "{5-25}" {
		t.Fatalf("got %s", s)
	}
}

func TestAddSubsumed(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(1, 100)
	s.AddRange(40, 50)
	if s.String() != "{1-100}" || s.NumIntervals() != 1 {
		t.Fatalf("got %s", s)
	}
}

func TestAddSpanningMany(t *testing.T) {
	s := &IntervalSet{}
	s.Add(1)
	s.Add(5)
	s.Add(9)
	s.AddRange(2, 10)
	if s.String() != "{1-10}" {
		t.Fatalf("got %s", s)
	}
}

func TestContains(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(3, 5)
	s.Add(9)
	for _, v := range []uint64{3, 4, 5, 9} {
		if !s.Contains(v) {
			t.Errorf("should contain %d", v)
		}
	}
	for _, v := range []uint64{1, 2, 6, 8, 10} {
		if s.Contains(v) {
			t.Errorf("should not contain %d", v)
		}
	}
}

func TestRunEndingAt(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(3, 8)
	s.Add(11)
	for _, c := range []struct {
		t, lo uint64
		ok    bool
	}{
		{3, 3, true}, {6, 3, true}, {8, 3, true}, {11, 11, true},
		{0, 0, false}, {2, 0, false}, {9, 0, false}, {12, 0, false},
	} {
		lo, ok := s.RunEndingAt(c.t)
		if lo != c.lo || ok != c.ok {
			t.Errorf("RunEndingAt(%d) = (%d, %v), want (%d, %v)", c.t, lo, ok, c.lo, c.ok)
		}
		if ok && !s.ContainsRange(lo, c.t) {
			t.Errorf("RunEndingAt(%d): [%d, %d] not in %s", c.t, lo, c.t, s)
		}
	}
}

func TestContainsRange(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(3, 8)
	if !s.ContainsRange(4, 8) || !s.ContainsRange(3, 3) {
		t.Error("subranges should be contained")
	}
	if s.ContainsRange(2, 4) || s.ContainsRange(7, 9) {
		t.Error("ranges crossing the boundary should not be contained")
	}
	if !s.ContainsRange(5, 4) {
		t.Error("empty range is vacuously contained")
	}
}

func TestHighestContiguous(t *testing.T) {
	s := &IntervalSet{}
	if s.HighestContiguous() != 0 {
		t.Error("empty set should have 0")
	}
	s.AddRange(2, 10)
	if s.HighestContiguous() != 0 {
		t.Error("set without 1 should have 0")
	}
	s.Add(1)
	if got := s.HighestContiguous(); got != 10 {
		t.Errorf("got %d, want 10", got)
	}
	s.AddRange(15, 20)
	if got := s.HighestContiguous(); got != 10 {
		t.Errorf("hole must cap contiguous: got %d, want 10", got)
	}
}

func TestMinMaxLen(t *testing.T) {
	s := &IntervalSet{}
	if s.Min() != 0 || s.Max() != 0 || s.Len() != 0 {
		t.Error("empty set min/max/len should be 0")
	}
	s.AddRange(4, 6)
	s.Add(10)
	if s.Min() != 4 || s.Max() != 10 || s.Len() != 4 {
		t.Errorf("min=%d max=%d len=%d", s.Min(), s.Max(), s.Len())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(1, 5)
	s.Add(9)
	s.AddRange(20, 30)
	got := DecodeSet(s.Encode())
	if !reflect.DeepEqual(s.iv, got.iv) {
		t.Errorf("round trip: %s vs %s", s, got)
	}
}

func TestClone(t *testing.T) {
	s := &IntervalSet{}
	s.AddRange(1, 5)
	c := s.Clone()
	c.Add(10)
	if s.Contains(10) {
		t.Error("clone must not alias")
	}
}

// Property: IntervalSet behaves exactly like a map-based set under a random
// sequence of Add/AddRange operations, and its invariants always hold.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &IntervalSet{}
		model := map[uint64]bool{}
		for i := 0; i < int(nOps); i++ {
			lo := uint64(rng.Intn(64)) + 1
			hi := lo + uint64(rng.Intn(8))
			s.AddRange(lo, hi)
			for v := lo; v <= hi; v++ {
				model[v] = true
			}
			if err := s.Validate(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		// Compare membership over the whole domain.
		for v := uint64(1); v <= 80; v++ {
			if s.Contains(v) != model[v] {
				t.Logf("membership mismatch at %d (set %s)", v, s)
				return false
			}
		}
		// Compare cardinality and highest contiguous.
		if s.Len() != uint64(len(model)) {
			return false
		}
		want := uint64(0)
		for model[want+1] {
			want++
		}
		return s.HighestContiguous() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: union via AddSet equals element-wise insertion.
func TestQuickAddSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := &IntervalSet{}, &IntervalSet{}
		for i := 0; i < 20; i++ {
			a.AddRange(uint64(rng.Intn(50)+1), uint64(rng.Intn(50)+1)+5)
			b.AddRange(uint64(rng.Intn(50)+1), uint64(rng.Intn(50)+1)+5)
		}
		u := a.Clone()
		u.AddSet(b)
		if err := u.Validate(); err != nil {
			return false
		}
		for v := uint64(1); v <= 120; v++ {
			if u.Contains(v) != (a.Contains(v) || b.Contains(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddRangeSequential(b *testing.B) {
	s := &IntervalSet{}
	for i := 0; i < b.N; i++ {
		s.AddRange(uint64(i)*3+1, uint64(i)*3+2)
	}
}

func BenchmarkHighestContiguous(b *testing.B) {
	s := &IntervalSet{}
	for i := 0; i < 1000; i++ {
		s.AddRange(uint64(i)*3+1, uint64(i)*3+2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.HighestContiguous()
	}
}
