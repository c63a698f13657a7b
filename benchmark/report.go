package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// report prints one workload run for a reader: every metric by name
// with its unit, then the diagnostics and notes.
func report(w io.Writer, spec Spec, c *Contract, det *Detail) {
	kind := "end-to-end"
	decls := EndToEnd
	if det.Traced {
		kind, decls = "per-layer (traced)", PerLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  window %.0fs  attempted %d  failed %d\n",
		spec.Name, kind, det.Seed, det.WindowS, c.Attempted, c.Failed)
	for _, d := range decls {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, c.Metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(det.Diagnostics))
	for n := range det.Diagnostics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  (%s %.4f)\n", n, det.Diagnostics[n])
	}
	for _, n := range det.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// WorkloadResult is one workload's entry in a result file.
type WorkloadResult struct {
	Contract Contract `json:"result"`
	Detail   Detail   `json:"detail"`
}

// ResultFile is what a set run writes: one entry per set, each mapping
// workload names to results. Every entry's detail carries the
// environment fingerprint.
type ResultFile struct {
	Generated string                      `json:"generated"`
	Traced    bool                        `json:"traced"`
	Seed      int64                       `json:"seed"`
	Seconds   int                         `json:"seconds"`
	Sets      []map[string]WorkloadResult `json:"sets"`
}

// setMain runs the four workloads, sets times over, each in a child
// process of its own, and writes the result file.
func setMain(ctx context.Context, w io.Writer, seed int64, seconds, trace, sets int, nofault bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rf := ResultFile{Generated: time.Now().UTC().Format(time.RFC3339), Traced: trace == 1, Seed: seed, Seconds: seconds}
	for set := 0; set < max(sets, 1); set++ {
		results := make(map[string]WorkloadResult)
		for _, spec := range Specs {
			args := []string{"-workload", spec.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			if nofault {
				args = append(args, "-nofault")
			}
			res, err := runChild(ctx, w, exe, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Name, err)
				return 1
			}
			results[spec.Name] = res
		}
		rf.Sets = append(rf.Sets, results)
	}
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("result-%d.json", time.Now().Unix()))
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if len(rf.Sets) > 1 {
		printSets(w, &rf)
	}
	fmt.Fprintf(w, "result file: %s\n", out)
	return 0
}

// runChild runs one workload in a child process, relays its report, and
// parses its last two lines. The child is waited for on every path.
func runChild(ctx context.Context, w io.Writer, exe string, args []string) (WorkloadResult, error) {
	ctx, cancel := context.WithTimeout(ctx, 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		return WorkloadResult{}, err
	}
	var lines [][]byte
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		return WorkloadResult{}, fmt.Errorf("child printed %d lines", len(lines))
	}
	for _, l := range lines[:len(lines)-2] {
		fmt.Fprintf(w, "%s\n", l)
	}
	var res WorkloadResult
	if err := json.Unmarshal(lines[len(lines)-2], &res.Detail); err != nil {
		return res, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res.Contract); err != nil {
		return res, fmt.Errorf("contract line: %w", err)
	}
	return res, nil
}

// cell collects one workload x metric across a file's sets.
func cell(rf *ResultFile, workload, metric string) []float64 {
	var vs []float64
	for _, set := range rf.Sets {
		if r, ok := set[workload]; ok {
			if v, ok := r.Contract.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			} else if v, ok := r.Detail.Diagnostics[metric]; ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// decls returns the metrics a result file is summarized by: gated ones
// (Bound > 0) first, then ungated ones.
func (rf *ResultFile) decls() []MetricDecl {
	if rf.Traced {
		return PerLayer
	}
	return append(append([]MetricDecl(nil), EndToEnd...), Tracked...)
}

// printSets prints min / median / max per workload x metric: how the
// bounds in BENCHMARK.json are established and re-checked.
func printSets(w io.Writer, rf *ResultFile) {
	fmt.Fprintf(w, "\n%d sets: min / median / max, spread = (max-min)/median\n", len(rf.Sets))
	for _, spec := range Specs {
		for _, d := range rf.decls() {
			vs := cell(rf, spec.Name, d.Name)
			lo, hi := minMax(vs)
			med := Median(vs)
			fmt.Fprintf(w, "  %-15s %-30s %12.4f %12.4f %12.4f %-5s spread %5.1f%%", spec.Name, d.Name, lo, med, hi, d.Unit, spreadPct(vs))
			if d.Bound > 0 {
				fmt.Fprintf(w, "  bound %4.1f%%", d.Bound*100)
			}
			fmt.Fprintln(w)
		}
	}
}

// spreadPct is (max-min)/median of vs, in percent (0 without a median).
func spreadPct(vs []float64) float64 {
	med := Median(vs)
	if med == 0 {
		return 0
	}
	lo, hi := minMax(vs)
	return (hi - lo) / med * 100
}

// compareMain prints one row per workload x end-to-end metric of two
// result files — both medians, the ratio with its base, the bound and a
// verdict — and returns 1 if any metric got worse by more than its
// bound. A metric whose spread in either file exceeds the bound cannot
// be told apart from noise: it is unresolved, not ok. The tracked
// diagnostics follow each workload's rows, with spreads in place of a
// verdict.
func compareMain(w io.Writer, paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files: base.json new.json")
		return 2
	}
	var files [2]ResultFile
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
	}
	base, next := &files[0], &files[1]
	fmt.Fprintf(w, "base %s (%d sets)  new %s (%d sets)\n", paths[0], len(base.Sets), paths[1], len(next.Sets))
	worse := false
	for _, spec := range Specs {
		for _, d := range EndToEnd {
			a, b := cell(base, spec.Name, d.Name), cell(next, spec.Name, d.Name)
			verdict, ratio := Verdict(d, a, b)
			if verdict == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "  %-15s %-18s base %12.4f  new %12.4f %-4s new/base %6.3f  bound %4.1f%%  %s\n",
				spec.Name, d.Name, Median(a), Median(b), d.Unit, ratio, d.Bound*100, verdict)
		}
		for _, d := range Tracked {
			a, b := cell(base, spec.Name, d.Name), cell(next, spec.Name, d.Name)
			_, ratio := Verdict(d, a, b)
			fmt.Fprintf(w, "  %-15s %-18s base %12.4f  new %12.4f %-4s new/base %6.3f  not gated; spreads %.1f%% / %.1f%%\n",
				spec.Name, d.Name, Median(a), Median(b), d.Unit, ratio, spreadPct(a), spreadPct(b))
		}
	}
	if worse {
		return 1
	}
	return 0
}

// Verdict compares a metric's values in a base and a new result: "ok",
// "worse" (the new median is worse than the base's by more than the
// bound) or "unresolved" (it looks worse, but a side's own spread is
// wider than the bound). ratio is new median / base median.
func Verdict(d MetricDecl, base, next []float64) (verdict string, ratio float64) {
	a, b := Median(base), Median(next)
	if a == 0 {
		return "unresolved", 0
	}
	ratio = b / a
	change := ratio - 1 // positive: grew
	if d.Better == "higher" {
		change = -change
	}
	if change <= d.Bound {
		return "ok", ratio
	}
	if spreadPct(base) > d.Bound*100 || spreadPct(next) > d.Bound*100 {
		return "unresolved", ratio
	}
	return "worse", ratio
}
