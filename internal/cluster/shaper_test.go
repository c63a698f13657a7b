package cluster

import (
	"sync"
	"testing"
	"time"

	"tempo/internal/ids"
	"tempo/internal/proto"
)

// sizedMsg is a shaper test message with a controllable wire size.
type sizedMsg struct{ N int }

func (m sizedMsg) Size() int { return m.N }

// recorder collects shaped deliveries with their arrival times.
type recorder struct {
	mu   sync.Mutex
	got  []sizedMsg
	at   []time.Time
	done chan struct{} // closed when want messages arrived
	want int
}

func newRecorder(want int) *recorder {
	return &recorder{done: make(chan struct{}), want: want}
}

func (r *recorder) deliver(from, to ids.ProcessID, msg proto.Message) {
	r.mu.Lock()
	r.got = append(r.got, msg.(sizedMsg))
	r.at = append(r.at, time.Now())
	if len(r.got) == r.want {
		close(r.done)
	}
	r.mu.Unlock()
}

func (r *recorder) wait(t *testing.T) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("recorder: got %d of %d messages", len(r.got), r.want)
	}
}

func TestShaperDelayAndFIFO(t *testing.T) {
	const n = 64
	delay := 20 * time.Millisecond
	sh := NewShaper(func(from, to ids.ProcessID) LinkPolicy {
		return LinkPolicy{Delay: delay, Jitter: 10 * time.Millisecond}
	})
	defer sh.Close()
	rec := newRecorder(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		sh.Send(1, 2, sizedMsg{N: i}, rec.deliver)
	}
	rec.wait(t)
	for i, m := range rec.got {
		if m.N != i {
			t.Fatalf("message %d arrived at position %d: shaped link reordered", m.N, i)
		}
		if lat := rec.at[i].Sub(start); lat < delay {
			t.Fatalf("message %d delivered after %v, want >= %v", i, lat, delay)
		}
	}
	if got := sh.Delivered(); got != n {
		t.Fatalf("Delivered() = %d, want %d", got, n)
	}
}

func TestShaperSelfBypass(t *testing.T) {
	sh := NewShaper(func(from, to ids.ProcessID) LinkPolicy {
		return LinkPolicy{Delay: time.Hour}
	})
	defer sh.Close()
	sh.Isolate(7)
	rec := newRecorder(1)
	sh.Send(7, 7, sizedMsg{}, rec.deliver) // inline, despite delay and isolation
	select {
	case <-rec.done:
	default:
		t.Fatal("self-send was shaped or dropped")
	}
}

func TestShaperPartitions(t *testing.T) {
	sh := NewShaper(nil)
	defer sh.Close()
	count := func(from, to ids.ProcessID) int {
		rec := newRecorder(1)
		sh.Send(from, to, sizedMsg{}, rec.deliver)
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.got) // nil policy: delivery is inline when not blocked
	}

	if count(1, 2) != 1 {
		t.Fatal("healthy link dropped")
	}
	sh.Cut(1, 2)
	if count(1, 2) != 0 || count(2, 1) != 0 {
		t.Fatal("cut link delivered")
	}
	if count(1, 3) != 1 {
		t.Fatal("cut of (1,2) blocked (1,3)")
	}
	sh.Heal(1, 2)
	if count(1, 2) != 1 || count(2, 1) != 1 {
		t.Fatal("healed link still blocked")
	}

	sh.CutOneWay(3, 1)
	if count(3, 1) != 0 {
		t.Fatal("one-way cut delivered")
	}
	if count(1, 3) != 1 {
		t.Fatal("one-way cut blocked the reverse direction")
	}

	sh.Isolate(5)
	if count(5, 1) != 0 || count(1, 5) != 0 {
		t.Fatal("isolated process still reachable")
	}
	sh.Rejoin(5)
	if count(5, 1) != 1 {
		t.Fatal("rejoined process still blocked")
	}

	sh.Cut(1, 2)
	sh.Isolate(5)
	sh.HealAll()
	if count(1, 2) != 1 || count(5, 1) != 1 {
		t.Fatal("HealAll left links blocked")
	}
	st := sh.State()
	if len(st.Cuts) != 0 || len(st.Isolated) != 0 {
		t.Fatalf("State after HealAll = %+v, want empty", st)
	}
	if st.Dropped != sh.Dropped() || st.Dropped == 0 {
		t.Fatalf("State.Dropped = %d, want %d > 0", st.Dropped, sh.Dropped())
	}
}

func TestShaperBandwidth(t *testing.T) {
	// 10 KB/s and three 250-byte messages: serialization alone spaces
	// them 25ms apart, so the third cannot arrive before ~75ms.
	sh := NewShaper(func(from, to ids.ProcessID) LinkPolicy {
		return LinkPolicy{Bandwidth: 10_000}
	})
	defer sh.Close()
	rec := newRecorder(3)
	start := time.Now()
	for i := 0; i < 3; i++ {
		sh.Send(1, 2, sizedMsg{N: 250}, rec.deliver)
	}
	rec.wait(t)
	if lat := rec.at[2].Sub(start); lat < 70*time.Millisecond {
		t.Fatalf("third message after %v, want >= 70ms of serialization", lat)
	}
}

func TestShaperLoss(t *testing.T) {
	sh := NewShaper(func(from, to ids.ProcessID) LinkPolicy {
		return LinkPolicy{Loss: 1.0}
	})
	defer sh.Close()
	rec := newRecorder(1)
	for i := 0; i < 20; i++ {
		sh.Send(1, 2, sizedMsg{}, rec.deliver)
	}
	if sh.Dropped() != 20 || sh.Delivered() != 0 {
		t.Fatalf("loss=1.0: dropped=%d delivered=%d, want 20/0", sh.Dropped(), sh.Delivered())
	}
}

func TestShaperCloseDiscards(t *testing.T) {
	sh := NewShaper(func(from, to ids.ProcessID) LinkPolicy {
		return LinkPolicy{Delay: time.Hour}
	})
	rec := newRecorder(1)
	sh.Send(1, 2, sizedMsg{}, rec.deliver)
	sh.Close()
	sh.Send(1, 2, sizedMsg{}, rec.deliver) // post-close: dropped, no panic
	time.Sleep(10 * time.Millisecond)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.got) != 0 {
		t.Fatal("closed shaper delivered a delayed message")
	}
}

// TestClusterUnderShaper runs a real 3-node TCP cluster with a shared
// shaper adding a 5ms one-way delay on every inter-process link and
// checks that commands still commit — and take at least one shaped
// round trip.
func TestClusterUnderShaper(t *testing.T) {
	sh := NewShaper(func(from, to ids.ProcessID) LinkPolicy {
		return LinkPolicy{Delay: 5 * time.Millisecond}
	})
	defer sh.Close()
	nodes, addrs, topo := startClusterWith(t, 3, 1, func(i int, n *Node) {
		n.SetShaper(sh)
	})
	_ = nodes
	c, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Put("wan-k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if lat := time.Since(start); lat < 10*time.Millisecond {
		t.Fatalf("shaped commit took %v, want >= one 5ms round trip", lat)
	}
	v, err := c.Get("wan-k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if sh.Delivered() == 0 {
		t.Fatal("shaper saw no protocol traffic")
	}
}
