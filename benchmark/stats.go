package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Percentile returns the p-quantile (0 <= p <= 1) of sorted, by the
// nearest-rank rule on index p*(n-1). It is 0 for no samples.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// Gaps tracks the longest gap between consecutive instants, which must
// be observed in ascending order. Fewer than two instants have no gap:
// Max stays 0.
type Gaps struct {
	// Max is the longest gap seen so far.
	Max  int64
	last int64
	seen bool
}

// Observe records the next instant.
func (g *Gaps) Observe(t int64) {
	if g.seen && t-g.last > g.Max {
		g.Max = t - g.last
	}
	g.last, g.seen = t, true
}

// Median returns the median of vs (the mean of the middle two for an
// even count), 0 for none. vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// Fingerprint describes the machine and build a result was taken on.
type Fingerprint struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
}

// fingerprint fills a Fingerprint; dataDir is where data directories
// are created.
func fingerprint(dataDir string) Fingerprint {
	return Fingerprint{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Kernel:     kernelRelease(),
		DataFS:     fsType(dataDir),
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout (the benchmark driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// kernelRelease is uname -r.
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem holding dir, from /proc/mounts: the type
// of the longest mount point that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
