package promise

import (
	"sort"

	"tempo/internal/ids"
)

// Attached is a promise attached to a command: process rank owner promised
// timestamp TS for command ID and will not reuse it (line 37 of
// Algorithm 1).
type Attached struct {
	Owner ids.Rank
	ID    ids.Dot
	TS    uint64
}

// Tracker is the Promises variable of Algorithm 2 for one shard: the
// promises known from each of the r processes of the shard, plus the
// stability computation of Theorem 1.
//
// Detached promises are incorporated immediately; attached promises only
// once their command is known to be committed (the caller signals commits
// via Committed). Attached promises received earlier are buffered.
//
// Per-command bookkeeping (pending, committed) lives only while a command
// is in flight: once it is executed everywhere the caller calls Forget,
// which moves the id into the compact forgotten set. The promise
// intervals themselves are retained (they are compressed).
type Tracker struct {
	r       int
	perRank []*IntervalSet // rank-1 indexed
	// hc caches perRank[i].HighestContiguous(); maintained incrementally
	// on every promise insertion so Stable never re-walks the sets.
	hc []uint64
	// stable caches the Theorem 1 watermark; recomputed from hc (via
	// scratch, an order-statistic buffer) only after an insertion moved
	// some rank's contiguous frontier.
	stable  uint64
	dirty   bool
	scratch []uint64
	// pending holds attached promises whose command is not yet committed
	// locally, keyed by command id.
	pending map[ids.Dot][]Attached
	// committed remembers the in-flight command ids whose attached
	// promises may be incorporated.
	committed map[ids.Dot]struct{}
	// forgotten holds the ids passed to Forget, as one set of sequence
	// numbers per source process. A process's commands are forgotten in
	// nearly the order it minted them, so a source whose every command
	// reaches this tracker collapses to one interval; a source seen only
	// now and then (a sibling shard's coordinator) costs one interval per
	// command.
	forgotten map[ids.ProcessID]*IntervalSet
}

// NewTracker creates a tracker for a replica group of r processes.
func NewTracker(r int) *Tracker {
	t := &Tracker{
		r:         r,
		perRank:   make([]*IntervalSet, r),
		hc:        make([]uint64, r),
		scratch:   make([]uint64, r),
		pending:   make(map[ids.Dot][]Attached),
		committed: make(map[ids.Dot]struct{}),
		forgotten: make(map[ids.ProcessID]*IntervalSet),
	}
	for i := range t.perRank {
		t.perRank[i] = &IntervalSet{}
	}
	return t
}

// refresh re-reads a rank's contiguous frontier after an insertion and
// marks the stability watermark dirty if it moved.
func (t *Tracker) refresh(rank ids.Rank) {
	if h := t.perRank[rank-1].HighestContiguous(); h != t.hc[rank-1] {
		t.hc[rank-1] = h
		t.dirty = true
	}
}

// AddDetached records a detached promise range [lo, hi] by rank.
func (t *Tracker) AddDetached(rank ids.Rank, lo, hi uint64) {
	t.perRank[rank-1].AddRange(lo, hi)
	t.refresh(rank)
}

// AddDetachedSet records a set of detached promises by rank.
func (t *Tracker) AddDetachedSet(rank ids.Rank, s *IntervalSet) {
	t.perRank[rank-1].AddSet(s)
	t.refresh(rank)
}

// AddDetachedPairs records wire-encoded detached promises (lo/hi pairs,
// as produced by IntervalSet.Encode) by rank, without materializing an
// intermediate set.
func (t *Tracker) AddDetachedPairs(rank ids.Rank, pairs []uint64) {
	t.perRank[rank-1].AddPairs(pairs)
	t.refresh(rank)
}

// AddAttached records an attached promise. If the command is already known
// committed (or forgotten: a peer keeps advertising a promise until it
// learns the command executed everywhere) the promise is incorporated
// immediately; otherwise it is buffered until Committed is called for the
// command. It returns true if the promise was incorporated and false if
// buffered.
func (t *Tracker) AddAttached(a Attached) bool {
	if t.IsCommitted(a.ID) {
		t.perRank[a.Owner-1].Add(a.TS)
		t.refresh(a.Owner)
		return true
	}
	t.pending[a.ID] = append(t.pending[a.ID], a)
	return false
}

// Committed marks a command as committed (or executed), releasing any
// buffered attached promises for it (line 47 of Algorithm 2).
func (t *Tracker) Committed(id ids.Dot) {
	if t.IsCommitted(id) {
		return
	}
	t.committed[id] = struct{}{}
	for _, a := range t.pending[id] {
		t.perRank[a.Owner-1].Add(a.TS)
		t.refresh(a.Owner)
	}
	delete(t.pending, id)
}

// IsCommitted reports whether the tracker has been told id is committed,
// whether or not it was forgotten since.
func (t *Tracker) IsCommitted(id ids.Dot) bool {
	_, ok := t.committed[id]
	return ok || t.Forgotten(id)
}

// Forgotten reports whether Forget was called for id.
func (t *Tracker) Forgotten(id ids.Dot) bool {
	s := t.forgotten[id.Source]
	return s != nil && s.Contains(id.Seq)
}

// InFlight returns the number of per-command entries the tracker holds:
// commands marked committed and not yet forgotten, and commands with
// buffered attached promises.
func (t *Tracker) InFlight() (committed, pending int) {
	return len(t.committed), len(t.pending)
}

// ForgottenIntervals returns how many intervals the forgotten set
// stores over all sources: its memory, at 16 bytes each.
func (t *Tracker) ForgottenIntervals() int {
	n := 0
	for _, s := range t.forgotten {
		n += s.NumIntervals()
	}
	return n
}

// PendingIDs returns the ids with buffered attached promises: commands
// some process has proposed a timestamp for, but that are not committed
// locally. The liveness protocol sends MCommitRequest for these.
func (t *Tracker) PendingIDs() []ids.Dot {
	out := make([]ids.Dot, 0, len(t.pending))
	for id := range t.pending {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HighestContiguous returns highest_contiguous_promise(rank).
func (t *Tracker) HighestContiguous(rank ids.Rank) uint64 {
	return t.hc[rank-1]
}

// Max returns the highest timestamp this tracker has ever seen promised
// by rank (attached or detached), contiguous or not. It bounds what the
// rank's process could have handed out as far as this process observed —
// the membership frontier query for node replacement.
func (t *Tracker) Max(rank ids.Rank) uint64 {
	return t.perRank[rank-1].Max()
}

// Stable returns the highest stable timestamp per Theorem 1: the largest s
// such that some majority (⌊r/2⌋+1 processes) have all promises up to s.
// Sorting the per-rank highest contiguous promises ascending, this is the
// element at index ⌊r/2⌋ (Algorithm 2, line 50-51).
//
// The result is cached: Stable runs on every protocol step, while the
// per-rank contiguous frontiers move far less often, so the order
// statistic is recomputed (allocation-free, over the cached frontiers)
// only when an insertion actually moved one.
func (t *Tracker) Stable() uint64 {
	if t.dirty {
		t.dirty = false
		s := t.scratch
		copy(s, t.hc)
		for i := 1; i < len(s); i++ { // insertion sort; r is tiny
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		t.stable = s[t.r/2]
	}
	return t.stable
}

// Forget drops the per-command bookkeeping of a command that executed at
// every process of the shard. The id stays known as committed through the
// forgotten set, so an attached promise that arrives later is still
// incorporated rather than buffered.
func (t *Tracker) Forget(id ids.Dot) {
	delete(t.committed, id)
	delete(t.pending, id)
	s := t.forgotten[id.Source]
	if s == nil {
		s = &IntervalSet{}
		t.forgotten[id.Source] = s
	}
	s.Add(id.Seq)
}
