package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

// The generator is a pure function of (workload, seed).
func TestGenerateIsDeterministic(t *testing.T) {
	for _, spec := range Specs {
		a, b := Generate(spec, 7), Generate(spec, 7)
		if !reflect.DeepEqual(a.Ops, b.Ops) || !reflect.DeepEqual(a.Filler, b.Filler) || !reflect.DeepEqual(a.Keys, b.Keys) {
			t.Errorf("%s: two calls with one seed gave different streams", spec.Name)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("%s: digests differ for one seed", spec.Name)
		}
		if c := Generate(spec, 8); c.Digest() == a.Digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", spec.Name)
		}
		var gets, cross int
		for _, op := range a.Ops[0] {
			if op.Get {
				gets++
			}
			if op.B != NoKey {
				cross++
				if a.Shard[op.A] == a.Shard[op.B] {
					t.Fatalf("%s: cross-shard op with both keys on shard %d", spec.Name, a.Shard[op.A])
				}
			}
		}
		if got := float64(gets) / StreamLen; got < spec.GetShare-0.01 || got > spec.GetShare+0.01 {
			t.Errorf("%s: get share %.3f, want %.2f", spec.Name, got, spec.GetShare)
		}
		if got := float64(cross) / StreamLen; got < spec.CrossShare-0.01 || got > spec.CrossShare+0.01 {
			t.Errorf("%s: cross-shard share %.3f, want %.2f", spec.Name, got, spec.CrossShare)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	in := Generate(Specs[0], 1)
	v := in.Value(make([]byte, Specs[0].ValueBytes), 1, 123456)
	s, seq, ok := Writer(v)
	if !ok || s != 1 || seq != 123456 || len(v) != Specs[0].ValueBytes {
		t.Fatalf("Writer(Value(1, 123456)) = %d, %d, %v", s, seq, ok)
	}
	if _, _, ok := Writer([]byte("short")); ok {
		t.Error("Writer accepted a 5-byte value")
	}
}

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.99); got != 0 {
		t.Errorf("empty: %d", got)
	}
	if got := Percentile([]int64{42}, 0.5); got != 42 {
		t.Errorf("one sample p50: %d", got)
	}
	if got := Percentile([]int64{42}, 0.99); got != 42 {
		t.Errorf("one sample p99: %d", got)
	}
	s := make([]int64, 101) // 0..100
	for i := range s {
		s[i] = int64(i)
	}
	for p, want := range map[float64]int64{0: 0, 0.5: 50, 0.99: 99, 1: 100} {
		if got := Percentile(s, p); got != want {
			t.Errorf("p%v of 0..100 = %d, want %d", p, got, want)
		}
	}
}

// stall_ms is the longest gap between consecutive completions.
func TestGaps(t *testing.T) {
	var g Gaps
	if g.Max != 0 {
		t.Errorf("no instant: %d", g.Max)
	}
	g.Observe(5)
	if g.Max != 0 {
		t.Errorf("one instant: %d", g.Max)
	}
	for _, at := range []int64{6, 14, 15, 17} {
		g.Observe(at)
	}
	if g.Max != 8 {
		t.Errorf("gap = %d, want 8", g.Max)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// openSession builds an open-loop driver that records sends instead of
// making them.
func openSession(t *testing.T) (*Session, *[]slot) {
	t.Helper()
	spec, _ := SpecByName("lan.open.crash")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	var issued [Sessions]atomic.Uint32
	s := newSession(ctx, 0, spec, Generate(spec, 1), nil, &issued)
	var sent []slot
	s.issue = func(seq uint32, start, now int64) {
		sent = append(sent, slot{seq: seq, start: start, sent: now})
	}
	s.warmEnd, s.stop = 0, int64(time.Hour)
	return s, &sent
}

// In the open loop an operation's latency runs from when it was due,
// not from when the driver got round to sending it.
func TestOpenLoopLatencyIsFromDueTime(t *testing.T) {
	s, sent := openSession(t)
	first, period := schedule(0, s.spec.Rate)
	stall := int64(50 * time.Millisecond)
	// The driver wakes 50 ms after the first operation was due.
	next := s.sendDue(first, period, first+stall)
	want := int(stall/period) + 1
	if len(*sent) != want {
		t.Fatalf("a 50 ms stall at %d ops/s sent %d ops on wake-up, want %d", s.spec.Rate, len(*sent), want)
	}
	if next != first+int64(want)*period {
		t.Errorf("next due = %d, want %d", next, first+int64(want)*period)
	}
	for i, sl := range *sent {
		if sl.start != first+int64(i)*period {
			t.Fatalf("op %d clocked from %d, want its due time %d", i, sl.start, first+int64(i)*period)
		}
	}
	// Each completes 1 ms after it was sent; the first was due 50 ms
	// before that, so it must read at least 50 ms.
	s.epoch = time.Now().Add(-time.Duration(first + stall + int64(time.Millisecond)))
	s.complete((*sent)[0], [][]byte{nil}, nil)
	if len(s.Lat) != 1 || s.Lat[0] < stall {
		t.Fatalf("latency of the op due at the start of the stall = %v, want >= 50ms", s.Lat)
	}
	if len(s.Late) != want || s.Late[0] != stall {
		t.Errorf("generator lateness = %v..., want first %d", s.Late[:1], stall)
	}
}

// Ops due in the window count even when they complete after it.
func TestOpenLoopCountsByDueTime(t *testing.T) {
	s, _ := openSession(t)
	s.warmEnd, s.stop = int64(time.Second), int64(2*time.Second)
	if !s.counted(slot{start: s.stop - 1}, s.stop+int64(time.Second)) {
		t.Error("op due inside the window, done after it: not counted")
	}
	if s.counted(slot{start: s.warmEnd - 1}, s.warmEnd+1) {
		t.Error("op due during warm-up: counted")
	}
}

func TestCheckValue(t *testing.T) {
	spec, _ := SpecByName("lan.sat")
	in := Generate(spec, 1)
	var issued [Sessions]atomic.Uint32
	issued[0].Store(StreamLen)
	issued[1].Store(10)
	scratch := make([]byte, spec.ValueBytes)
	// Two puts of session 0 to one key.
	var key uint32
	var first, second uint32
	seen := map[uint32]uint32{}
	for seq, op := range in.Ops[0] {
		if prev, ok := seen[op.A]; ok {
			key, first, second = op.A, prev, uint32(seq)
			break
		}
		seen[op.A] = uint32(seq)
	}
	val := func(sess int, seq uint32) []byte {
		return in.Value(make([]byte, spec.ValueBytes), sess, seq)
	}
	cases := []struct {
		name       string
		floor, sup uint32
		v          []byte
		ok         bool
	}{
		{"empty, nothing acknowledged", 0, 0, nil, true},
		{"empty after an acknowledged put", first + 1, 0, nil, false},
		{"newest put", second + 1, first + 1, val(0, second), true},
		{"older put, still concurrent with the newer", second + 1, 0, val(0, first), true},
		{"older put, known overwritten", second + 1, first + 1, val(0, first), false},
		{"a put to another key", 0, 0, val(0, first+1), false},
		{"garbage", 0, 0, []byte("not a value of this benchmark"), false},
		{"another session's put that was never sent", 0, 0, val(1, 5000), false},
	}
	for _, c := range cases {
		err := checkValue(in, 0, key, c.floor, c.sup, c.v, scratch, &issued)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
	corrupt := val(0, second)
	corrupt[len(corrupt)-1] ^= 1
	if checkValue(in, 0, key, 0, 0, corrupt, scratch, &issued) == nil {
		t.Error("a value with a flipped body byte passed")
	}
}

func TestVerdict(t *testing.T) {
	lower := MetricDecl{Name: "commit_p50_ms", Better: "lower", Bound: 0.08}
	higher := MetricDecl{Name: "throughput_ops_s", Better: "higher", Bound: 0.08}
	cases := []struct {
		d          MetricDecl
		base, next []float64
		want       string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "ok"},
		{lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, "worse"},
		{lower, []float64{10, 10.1, 9.9}, []float64{5, 5, 5}, "ok"},
		{lower, []float64{10, 12, 8}, []float64{11.5, 11.4, 11.6}, "unresolved"},
		{higher, []float64{100, 101, 99}, []float64{95, 96, 94}, "ok"},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{150, 151, 149}, "ok"},
	}
	for _, c := range cases {
		if got, _ := Verdict(c.d, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.base, c.next, got, c.want)
		}
	}
}

// BENCHMARK.json and the program declare the same workloads and
// metrics, letter for letter.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(Specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(Specs))
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != Specs[i].Name || w.Why != Specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, Specs[i].Name, Specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []MetricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
			}
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program; want equal, in (0, 0.25]", m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, EndToEnd, true)
	compare("per_layer", file.PerLayer, PerLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
}
