package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stamp records what a result needs to be compared with another: the
// toolchain, the machine, the commit and the workload seed.
func stamp(cfg *config) map[string]any {
	return map[string]any{
		"go":           runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpuModel(),
		"commit":       commit(),
		"seed":         cfg.seed,
		"default_seed": DefaultSeed,
		"heldout_seed": HeldOutSeed,
		"seconds":      cfg.budget.Seconds(),
		"trace":        cfg.trace,
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD from the .git directory, or "unknown" outside a
// git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// resetPeakRSS ends a workload's set-up for peak_rss_mb: it returns the
// set-up's garbage to the operating system and resets the process's
// high-water resident set (VmHWM) to the current one, so peakRSSMB then
// reports the peak of the timed phase alone. It reports whether the
// reset took; when it did not, peakRSSMB includes the set-up.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's high-water resident set (VmHWM) since the
// last resetPeakRSS, in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// median of a sample (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of the standard percentiles that has at
// least ten samples beyond it, and the sample value at it. With fewer
// than twenty samples no percentile above the median qualifies, and the
// median is returned.
func tail(xs []float64) (pct, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	pct = 50
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if n*(1-p/100) >= 10 {
			pct = p
			break
		}
	}
	i := int(math.Ceil(pct/100*n)) - 1
	return pct, s[max(i, 0)]
}

// perSecond is operations per second of the operations' own time: the
// benchmark's work between them (fresh stores, store copies, forced
// collections) is not the program's and is left out.
func perSecond(samples ...[]time.Duration) float64 {
	var n int
	var busy time.Duration
	for _, s := range samples {
		n += len(s)
		for _, d := range s {
			busy += d
		}
	}
	return float64(n) / busy.Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runtimeSample snapshots the Go runtime counters the runtime.* layer
// metrics are deltas of.
type runtimeSample struct {
	gcCycles, allocBytes uint64
	gcPause              time.Duration
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// setRuntime reports the runtime.* metrics over the window [a, b],
// divided over n passes.
func setRuntime(o *outcome, a, b runtimeSample, n float64) {
	o.set("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles)/n, "count")
	o.set("runtime.gc_pause_ms", ms(b.gcPause-a.gcPause)/n, "ms")
	cpu := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		cpu = 100 * (b.gcCPU - a.gcCPU) / d
	}
	o.set("runtime.gc_cpu_pct", cpu, "%")
	o.set("runtime.alloc_mb", float64(b.allocBytes-a.allocBytes)/1e6/n, "MB")
}
