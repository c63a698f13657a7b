// Command benchmark is the repository's one gated benchmark. It boots
// each named workload's three-site deployment in-process on loopback,
// with every knob at the value tempo-server ships, drives it through the
// public client package from two sessions, checks every output, and
// prints each metric by name with its unit.
//
//	go run -C benchmark .                      # the four workloads, end-to-end metrics
//	go run -C benchmark . -trace 1             # the same set traced: per-layer metrics
//	go run -C benchmark . -sets 5              # five sets back to back: min/median/max
//	go run -C benchmark . -compare a.json b.json
//	go run -C benchmark . -workload lan.sat -seed 7 -seconds 20 -trace 0
//
// Without -workload the program re-executes itself once per workload, so
// CPU time and peak memory are per workload and one process runs at a
// time. With -workload it runs that workload and prints, as the last
// line of its output, the JSON object BENCHMARK.json's contract defines.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// An untraced run boots the deployment at least minSetups times, and
// goes on, up to maxSetups, while the boots so far took less than
// setupBudget together: a boot that takes a millisecond needs more
// samples to give a steady median than one that takes 300 ms. The last
// boot serves the run; setup_s is the median of all.
const (
	minSetups   = 5
	maxSetups   = 41
	setupBudget = 1500 * time.Millisecond
)

// outDir holds result files, trace files and, while a run lasts, the
// deployments' data directories. benchmark/.gitignore names it.
const outDir = "out"

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Contract is the object a workload run prints as its last line.
type Contract struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Detail is the line a workload run prints before the contract line:
// everything a result file keeps beyond the gated metrics.
type Detail struct {
	Detail      string             `json:"detail"` // the workload's name
	Traced      bool               `json:"traced"`
	Seed        int64              `json:"seed"`
	WindowS     float64            `json:"window_s"`
	WarmUpS     float64            `json:"warmup_s"`
	InputDigest string             `json:"input_digest"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Slices      []SliceStat        `json:"slices,omitempty"`
	Faults      []FaultEvent       `json:"faults,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print the contract line (default: run all four)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measure window, in seconds")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	sets := flag.Int("sets", 1, "run the whole set this many times and print min/median/max per metric")
	nofault := flag.Bool("nofault", false, "disable lan.open.crash's fault schedule (to see what the faults cost)")
	out := flag.String("out", "", "result file to write (default out/result-<unix time>.json)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric is worse")
	flag.Parse()
	log.SetOutput(os.Stderr)

	// The only context.Background in the program: everything below
	// derives a deadline from it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := 0
	switch {
	case *compare:
		code = compareMain(os.Stdout, flag.Args())
	case *workload != "":
		code = workloadMain(ctx, os.Stdout, *workload, *seed, *seconds, *trace == 1, *nofault)
	default:
		code = setMain(ctx, os.Stdout, *seed, *seconds, *trace, *sets, *nofault, *out)
	}
	stop()
	os.Exit(code)
}

// workloadMain runs one workload in this process. A run whose checks
// fail prints no metrics and exits 1.
func workloadMain(ctx context.Context, w io.Writer, name string, seed int64, seconds int, traced, nofault bool) int {
	spec, ok := SpecByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	// No run takes longer than this; the driver's own limit is 180 s.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// A run that was killed leaves its data directories behind; only one
	// run uses outDir at a time, so whatever is there is stale.
	for _, pattern := range []string{"data-*", "wal-layer-*"} {
		stale, _ := filepath.Glob(filepath.Join(outDir, pattern))
		for _, dir := range stale {
			os.RemoveAll(dir)
		}
	}
	var contract *Contract
	var detail *Detail
	var err error
	if traced {
		contract, detail, err = tracedRun(ctx, w, spec, seed, seconds, nofault)
	} else {
		contract, detail, err = untracedRun(ctx, w, spec, seed, seconds, nofault)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	printLine(w, detail)
	printLine(w, contract)
	return 0
}

// printLine prints v as one line of JSON.
func printLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	fmt.Fprintf(w, "%s\n", b)
}

// windows splits -seconds into the measure window and its warm-up.
func windows(seconds int) (window, warmUp time.Duration) {
	window = time.Duration(seconds) * time.Second
	return window, window * 3 / 20
}

// newDetail fills the fields every run's detail line shares.
func newDetail(spec Spec, in *Inputs, seed int64, traced bool, window, warmUp time.Duration) *Detail {
	return &Detail{
		Detail: spec.Name, Traced: traced, Seed: seed,
		WindowS: window.Seconds(), WarmUpS: warmUp.Seconds(),
		InputDigest: fmt.Sprintf("%016x", in.Digest()),
		Fingerprint: fingerprint(outDir),
		Diagnostics: map[string]float64{},
	}
}

// untracedRun takes a workload's end-to-end metrics.
func untracedRun(ctx context.Context, w io.Writer, spec Spec, seed int64, seconds int, nofault bool) (*Contract, *Detail, error) {
	began := time.Now()
	in := Generate(spec, seed)
	genS := time.Since(began).Seconds()
	window, warmUp := windows(seconds)
	opts := RunOpts{Window: window, WarmUp: warmUp, DataRoot: outDir, NoFault: nofault}

	// Set up several times and keep the last: one boot is one sample of
	// a time that swings with the disk and the scheduler.
	var l *live
	var setupS []float64
	for loop := time.Now(); len(setupS) < minSetups || (len(setupS) < maxSetups && time.Since(loop) < setupBudget); {
		if l != nil {
			l.close()
		}
		var err error
		if l, err = setUp(ctx, spec, in, opts); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, l.setup.Seconds())
	}
	defer l.close()
	res, err := runLoad(ctx, l, spec, in, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	n := float64(len(res.Lat))
	m := map[string]float64{
		"throughput_ops_s": res.Throughput(),
		"commit_p50_ms":    ms(Percentile(res.LatCalm, 0.50)),
		"commit_p99_ms":    ms(Percentile(res.Lat, 0.99)),
		"peak_rss_mb":      peakRSSMB(),
		"setup_s":          Median(setupS),
	}
	c := &Contract{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]Value{}}
	for _, d := range EndToEnd {
		c.Metrics[d.Name] = Value{m[d.Name], d.Unit}
	}
	det := newDetail(spec, in, seed, false, window, warmUp)
	det.Faults = res.Faults
	det.Slices = res.Slices[:]
	dg := det.Diagnostics
	dg["samples"] = n
	dg["samples_beyond_p99"] = float64(len(res.Lat) - int(0.99*float64(len(res.Lat)-1)) - 1)
	dg["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	dg["retried"] = float64(res.Retried)
	dg["cpu_us_per_op"] = float64(res.CPU.Microseconds()) / float64(res.Completed)
	dg["stall_ms"] = ms(res.Stall)
	dg["commit_p50_window_ms"] = ms(Percentile(res.Lat, 0.50))
	dg["commit_p90_ms"] = ms(Percentile(res.Lat, 0.90))
	dg["commit_p999_ms"] = ms(Percentile(res.Lat, 0.999))
	dg["commit_max_ms"] = ms(Percentile(res.Lat, 1))
	dg["gen_s"] = genS
	dg["setup_min_s"], dg["setup_max_s"] = minMax(setupS)
	dg["setups"] = float64(len(setupS))
	if spec.Inflight == 0 {
		dg["gen_late_p99_ms"] = ms(Percentile(res.Late, 0.99))
	}
	if spec.Profile != "" {
		det.Notes = append(det.Notes, profileNote(spec))
	}
	report(w, spec, c, det)
	return c, det, nil
}

// minMax returns the smallest and largest of vs.
func minMax(vs []float64) (lo, hi float64) {
	for i, v := range vs {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
