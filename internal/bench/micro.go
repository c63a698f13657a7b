package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/promise"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// Micro-benchmarks of the protocol hot paths, shared between `go test
// -bench` (see bench_test.go at the repository root) and `bench -exp
// micro`, which emits BENCH_micro.json so successive PRs can track the
// perf trajectory. Three paths matter per the paper's cost model
// (§6, Figures 7-9): per-message serialization (codec), the stability
// computation run on every protocol step (tracker), and the end-to-end
// per-command protocol work (process steady state).

// codecMix is a representative message mix for one fast-path commit
// round plus a promise broadcast.
func codecMix() []proto.Message {
	cmd := command.NewPut(ids.Dot{Source: 1, Seq: 42}, "key-0001", bytes.Repeat([]byte{0xAB}, 100))
	q := tempo.Quorums{0: {1, 2, 3}}
	return []proto.Message{
		&tempo.MSubmit{ID: cmd.ID, Cmd: cmd, Quorums: q},
		&tempo.MPropose{ID: cmd.ID, Cmd: cmd, Quorums: q, TS: 77},
		&tempo.MPayload{ID: cmd.ID, Cmd: cmd, Quorums: q},
		&tempo.MProposeAck{ID: cmd.ID, TS: 78, DetachedLo: 70, DetachedHi: 77},
		&tempo.MCommit{ID: cmd.ID, Shard: 0, TS: 78, Attached: []tempo.RankTS{
			{Rank: 1, TS: 78, DetLo: 70, DetHi: 77}, {Rank: 2, TS: 77}, {Rank: 3, TS: 78},
		}},
		&tempo.MPromises{Rank: 2, Detached: []uint64{1, 69, 71, 76},
			Attached: []tempo.AttachedWire{{ID: cmd.ID, TS: 77}},
			WM:       tempo.TSWatermark{TS: 69, ID: ids.Dot{Source: 2, Seq: 40}}},
		&tempo.MStable{ID: cmd.ID, Shard: 0},
	}
}

// CodecEncodeLoop measures encoding the mix into a reused buffer.
func CodecEncodeLoop(b *testing.B) {
	msgs := codecMix()
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		for _, m := range msgs {
			if buf, err = proto.AppendMessage(buf, m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(buf)), "encoded-bytes")
}

// CodecDecodeLoop measures decoding the same mix.
func CodecDecodeLoop(b *testing.B) {
	msgs := codecMix()
	b.ReportAllocs()
	var bin []byte
	var err error
	for _, m := range msgs {
		if bin, err = proto.AppendMessage(bin, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rest := bin
		for len(rest) > 0 {
			if _, rest, err = proto.DecodeMessage(rest); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TrackerStableLoop measures the Theorem 1 stability computation in the
// pattern advanceExecution exercises it: a Stable read on every step,
// with occasional promise insertions that move a rank's frontier and
// force the cached watermark to refresh.
func TrackerStableLoop(b *testing.B) {
	tr := promise.NewTracker(5)
	for rank := ids.Rank(1); rank <= 5; rank++ {
		for t := uint64(1); t <= 10000; t += 2 {
			tr.AddDetached(rank, t, t)
		}
	}
	next := uint64(10001)
	b.ReportAllocs()
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			tr.AddDetached(ids.Rank(i%5+1), next, next)
			next++
		}
		s = tr.Stable()
	}
	_ = s
}

// SteadyStateLoop measures the per-command cost of the full protocol hot
// path in steady state: submit, fast-path commit, promise gossip,
// stability, execution and garbage collection across the 5 replicas of
// the paper's single-shard EC2 topology. Ticks are interleaved so
// MPromises flow, watermarks advance and per-command state is recycled —
// the allocation profile is the one a loaded replica sees.
func SteadyStateLoop(b *testing.B) {
	topo := topology.EC2(1)
	reps := make(map[ids.ProcessID]proto.Replica)
	var procs []ids.ProcessID
	for _, pi := range topo.Processes() {
		reps[pi.ID] = tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: time.Millisecond,
			RecoveryTimeout: time.Hour,
		})
		procs = append(procs, pi.ID)
	}
	coordinator := topo.ProcessAt(0, 0)
	type env struct {
		from, to ids.ProcessID
		msg      proto.Message
	}
	var queue []env
	push := func(from ids.ProcessID, acts []proto.Action) {
		for _, a := range acts {
			for _, to := range a.To {
				queue = append(queue, env{from, to, a.Msg})
			}
		}
	}
	drain := func() {
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			push(e.to, reps[e.to].Handle(e.from, e.msg))
			reps[e.to].Drain()
		}
	}
	now := time.Duration(0)
	tickAll := func() {
		now += 2 * time.Millisecond
		for _, id := range procs {
			push(id, reps[id].Tick(now))
		}
		drain()
	}
	submit := func(seq uint64) {
		cmd := command.NewPut(ids.Dot{Source: coordinator, Seq: seq}, "k", nil)
		push(coordinator, reps[coordinator].Submit(cmd))
		drain()
		tickAll()
	}
	// Warm up so every replica has promises, watermarks and a populated
	// tracker before measuring.
	for i := uint64(1); i <= 64; i++ {
		submit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(uint64(i) + 65)
	}
}

// MicroResult is one micro-benchmark measurement in BENCH_micro.json.
type MicroResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// MicroReport is the schema of BENCH_micro.json.
type MicroReport struct {
	Generated string        `json:"generated"`
	Go        string        `json:"go"`
	Results   []MicroResult `json:"results"`
}

// RunMicro runs the micro-benchmark suite and prints one line per
// result to out.
func RunMicro(out io.Writer) []MicroResult {
	var results []MicroResult
	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		mr := MicroResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			mr.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				mr.Extra[k] = v
			}
		}
		fmt.Fprintf(out, "%-28s %12.1f ns/op %8d B/op %6d allocs/op",
			name, mr.NsPerOp, mr.BytesPerOp, mr.AllocsPerOp)
		for k, v := range mr.Extra {
			fmt.Fprintf(out, "  %s=%.0f", k, v)
		}
		fmt.Fprintln(out)
		results = append(results, mr)
	}
	run("codec/binary/encode", CodecEncodeLoop)
	run("codec/binary/decode", CodecDecodeLoop)
	run("tracker/stable", TrackerStableLoop)
	run("process/steady-state", SteadyStateLoop)
	run("client/roundtrip/pipelined-64", ClientPipelinedRoundTripLoop)
	return results
}

// WriteMicroJSON writes the results to path in the BENCH_micro.json
// schema.
func WriteMicroJSON(path string, results []MicroResult) error {
	rep := MicroReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		Results:   results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
