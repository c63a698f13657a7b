// Package promise implements Tempo's promise-tracking machinery (§3.2 of
// the paper): interval-compressed sets of timestamp promises per process,
// and the stability computation of Theorem 1 (a timestamp s is stable once
// a majority of processes have promised every timestamp up to s).
package promise

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// IntervalSet is a set of uint64 timestamps stored as sorted, disjoint,
// non-adjacent closed intervals. The zero value is an empty set.
//
// Promises issued by a process are dense ranges with occasional holes, so
// the representation stays tiny regardless of how many timestamps it
// covers.
type IntervalSet struct {
	iv []interval
}

type interval struct{ lo, hi uint64 }

// Add inserts a single timestamp.
func (s *IntervalSet) Add(t uint64) { s.AddRange(t, t) }

// AddRange inserts all timestamps in [lo, hi]. Empty ranges (lo > hi) are
// ignored.
func (s *IntervalSet) AddRange(lo, hi uint64) {
	if lo > hi {
		return
	}
	// Promises and forgotten sequence numbers mostly arrive in ascending
	// order: extend or follow the last interval without searching.
	if n := len(s.iv); n > 0 && lo > s.iv[n-1].hi {
		if lo == s.iv[n-1].hi+1 {
			s.iv[n-1].hi = hi
		} else {
			s.iv = append(s.iv, interval{lo, hi})
		}
		return
	}
	// Find the first interval that could merge with [lo, hi]: the first
	// with iv.hi >= lo-1 (adjacency merges too).
	lom := lo
	if lom > 0 {
		lom--
	}
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].hi >= lom })
	// Find one past the last interval that could merge: first with
	// iv.lo > hi+1.
	him := hi + 1
	if him < hi { // overflow
		him = hi
	}
	j := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].lo > him })
	if i == j {
		// No overlap or adjacency: insert new interval at i.
		s.iv = append(s.iv, interval{})
		copy(s.iv[i+1:], s.iv[i:])
		s.iv[i] = interval{lo, hi}
		return
	}
	// Merge intervals i..j-1 with [lo, hi].
	if s.iv[i].lo < lo {
		lo = s.iv[i].lo
	}
	if s.iv[j-1].hi > hi {
		hi = s.iv[j-1].hi
	}
	s.iv[i] = interval{lo, hi}
	s.iv = append(s.iv[:i+1], s.iv[j:]...)
}

// AddSet unions another set into s.
func (s *IntervalSet) AddSet(o *IntervalSet) {
	for _, iv := range o.iv {
		s.AddRange(iv.lo, iv.hi)
	}
}

// AddPairs unions wire-encoded lo/hi pairs (the Encode format) into s
// without materializing an intermediate set. A trailing odd element is
// ignored, as in DecodeSet.
func (s *IntervalSet) AddPairs(pairs []uint64) {
	for i := 0; i+1 < len(pairs); i += 2 {
		s.AddRange(pairs[i], pairs[i+1])
	}
}

// Contains reports whether t is in the set.
func (s *IntervalSet) Contains(t uint64) bool {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].hi >= t })
	return i < len(s.iv) && s.iv[i].lo <= t
}

// ContainsRange reports whether every timestamp in [lo, hi] is in the set.
func (s *IntervalSet) ContainsRange(lo, hi uint64) bool {
	if lo > hi {
		return true
	}
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].hi >= lo })
	return i < len(s.iv) && s.iv[i].lo <= lo && s.iv[i].hi >= hi
}

// RunEndingAt returns the smallest lo such that the set contains every
// timestamp in [lo, t]: the maximal run of the set that ends at t. ok is
// false when t itself is absent.
func (s *IntervalSet) RunEndingAt(t uint64) (lo uint64, ok bool) {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].hi >= t })
	if i == len(s.iv) || s.iv[i].lo > t {
		return 0, false
	}
	return s.iv[i].lo, true
}

// HighestContiguous returns the largest c such that the set contains every
// timestamp in [1, c]; 0 if 1 is absent. This is
// highest_contiguous_promise of Algorithm 2.
func (s *IntervalSet) HighestContiguous() uint64 {
	if len(s.iv) == 0 || s.iv[0].lo > 1 {
		return 0
	}
	return s.iv[0].hi
}

// Min returns the smallest element, or 0 if empty.
func (s *IntervalSet) Min() uint64 {
	if len(s.iv) == 0 {
		return 0
	}
	return s.iv[0].lo
}

// Max returns the largest element, or 0 if empty.
func (s *IntervalSet) Max() uint64 {
	if len(s.iv) == 0 {
		return 0
	}
	return s.iv[len(s.iv)-1].hi
}

// Len returns the number of timestamps in the set, saturating at
// math.MaxUint64 (the full range [0, MaxUint64] has 2^64 elements, which
// does not fit in a uint64).
func (s *IntervalSet) Len() uint64 {
	var n uint64
	for _, iv := range s.iv {
		d := iv.hi - iv.lo + 1 // 0 only for the full range (overflow)
		if d == 0 || n+d < n {
			return math.MaxUint64
		}
		n += d
	}
	return n
}

// NumIntervals returns the number of stored intervals (a measure of
// fragmentation, exposed for tests and metrics).
func (s *IntervalSet) NumIntervals() int { return len(s.iv) }

// Clone returns a deep copy.
func (s *IntervalSet) Clone() *IntervalSet {
	c := &IntervalSet{iv: make([]interval, len(s.iv))}
	copy(c.iv, s.iv)
	return c
}

// Ranges calls fn for every interval in ascending order; fn returning
// false stops the iteration.
func (s *IntervalSet) Ranges(fn func(lo, hi uint64) bool) {
	for _, iv := range s.iv {
		if !fn(iv.lo, iv.hi) {
			return
		}
	}
}

// Encode flattens the set to a []uint64 of lo/hi pairs (wire format).
func (s *IntervalSet) Encode() []uint64 {
	out := make([]uint64, 0, 2*len(s.iv))
	for _, iv := range s.iv {
		out = append(out, iv.lo, iv.hi)
	}
	return out
}

// DecodeSet rebuilds a set from Encode output.
func DecodeSet(pairs []uint64) *IntervalSet {
	s := &IntervalSet{}
	for i := 0; i+1 < len(pairs); i += 2 {
		s.AddRange(pairs[i], pairs[i+1])
	}
	return s
}

// Validate checks the representation invariants: sorted, disjoint,
// non-adjacent, lo <= hi. It is used by property tests.
func (s *IntervalSet) Validate() error {
	for i, iv := range s.iv {
		if iv.lo > iv.hi {
			return fmt.Errorf("interval %d inverted: [%d,%d]", i, iv.lo, iv.hi)
		}
		// Overlap: prev.hi >= lo. Adjacency: lo - prev.hi == 1, computed
		// without prev.hi+1, which wraps when prev.hi == math.MaxUint64
		// and used to let a corrupt set ending in MaxUint64 validate.
		if i > 0 {
			prev := s.iv[i-1]
			if prev.hi >= iv.lo || iv.lo-prev.hi == 1 {
				return fmt.Errorf("intervals %d,%d overlap or are adjacent: [%d,%d] [%d,%d]",
					i-1, i, prev.lo, prev.hi, iv.lo, iv.hi)
			}
		}
	}
	return nil
}

// String renders the set as "{[lo,hi] ...}" for tests and logs.
func (s *IntervalSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.iv {
		if i > 0 {
			b.WriteByte(' ')
		}
		if iv.lo == iv.hi {
			fmt.Fprintf(&b, "%d", iv.lo)
		} else {
			fmt.Fprintf(&b, "%d-%d", iv.lo, iv.hi)
		}
	}
	b.WriteByte('}')
	return b.String()
}
