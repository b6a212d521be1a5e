// Command perfbench is the repository benchmark: it runs one workload for
// a given time, checks every output it produces, and prints one JSON line
// of metrics — end-to-end metrics from an untraced run, per-layer metrics
// from a traced one. See README.md for the workloads, the metric table and
// how to read the numbers.
//
//	bash perfbench/run.sh --workload figs-cpu --seed 1 --seconds 25 --trace 0
//
// It runs from the repository root: the quick-figure golden it checks
// against is read from internal/experiments/testdata.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/topology"
)

// workloads maps each workload name to its set-up. A set-up builds
// everything the first timed operation needs and returns the runner.
var workloads = map[string]func(b *bench) (runner, error){
	"figs-cpu":    setupFigs([]string{"fig3", "fig7", "fig8"}, 2),
	"figs-mpi-io": setupFigs([]string{"fig4", "fig5", "fig6"}, 1),
	"sweep-store": setupSweep,
	"advisor":     setupAdvisor,
}

// runner is one set-up workload. A pass is a fixed unit of work: every
// pass of a run does the same operations on the same generated inputs,
// so counts repeat exactly from pass to pass.
type runner interface {
	pass(root int) (passResult, error)
	close() error
}

// phase is one kind of operation within a pass, in the pass's fixed
// order: operation i of one pass is the same work as operation i of every
// other pass.
type phase struct {
	ops   []float64     // ms per operation
	lanes int           // concurrent lanes the operations alternate over (0 = one)
	lat   []float64     // latency samples for percentiles (ms); nil = ops
	wall  time.Duration // the phase's wall time
	items int           // trials the phase simulates or answers
}

// busy is the longest lane's summed operation time: the part of the
// phase's wall time the operations account for.
func (p phase) busy(ops []float64) float64 {
	lanes := make([]float64, max(p.lanes, 1))
	for i, d := range ops {
		lanes[i%len(lanes)] += d
	}
	return slices.Max(lanes)
}

// passResult is what one pass measured.
type passResult struct {
	cold   phase // simulating operations
	warm   phase // operations answered without simulating
	replay phase // trials answered from stored results
	// attempted and failed count operations and failures.
	attempted, failed int
	// peakRSSMB is the process's peak resident set size during the pass.
	peakRSSMB float64
	// counts are the pass's per-layer counts.
	counts map[string]float64
}

func (p *passResult) add(name string, v float64) {
	if p.counts == nil {
		p.counts = map[string]float64{}
	}
	p.counts[name] += v
}

// bench is the state one run shares between the harness and its workload.
type bench struct {
	seed    uint64
	tr      *tracer // nil outside traced passes
	trials  *trialTimer
	scratch string   // the run's private directory under .bench_build
	broken  []string // failed correctness checks
}

// fail records a failed correctness check.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.broken) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	b.broken = append(b.broken, msg)
}

// mallocs is the process's heap allocation count in a traced pass, and 0
// otherwise (reading it stops the world).
func (b *bench) mallocs() float64 {
	if b.tr == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// derive draws the i-th input seed of a kind from the workload seed
// (splitmix64 over the three words), so every generated input is a pure
// function of --seed.
func derive(seed uint64, kind, i uint64) uint64 {
	x := seed ^ kind*0x9e3779b97f4a7c15 ^ i*0xbf58476d1ce4e5b9
	for k := 0; k < 2; k++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		x = z ^ z>>31
	}
	return x
}

// Input kinds for derive.
const (
	seedFigure uint64 = iota + 1
	seedSweep
	seedColdKey
	seedWarmKey
	seedWarmOrder
	seedAnatomy
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Child processes that time the set-up: at least minProbes and a second's
// worth, at most maxProbes; setup_s is their median.
const (
	minProbes = 15
	maxProbes = 101
)

func main() { os.Exit(realMain()) }

// realMain runs the benchmark and returns the exit code: 0 for a correct
// run, 1 when a correctness check failed, 2 when the run could not happen.
func realMain() int {
	var (
		name    = flag.String("workload", "", "workload: figs-cpu, figs-mpi-io, sweep-store or advisor")
		seed    = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 25, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		probe   = flag.Bool("setup-probe", false, "set the workload up and exit (times setup_s)")
	)
	flag.Parse()
	// One P: the process's timeline is the code's own single-core cost,
	// GC included, instead of depending on when the VM schedules a second
	// vCPU for a wakeup or a mark worker. On a 2-vCPU VM this halved the
	// run-to-run spread of every advisor metric.
	runtime.GOMAXPROCS(1)
	setup, ok := workloads[*name]
	if !ok {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if _, err := os.Stat(goldenPath); err != nil {
		return fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fatal(err)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(scratch)
	b := &bench{seed: *seed, trials: &trialTimer{parent: -1}, scratch: scratch}

	if *probe {
		r, err := setup(b)
		if err == nil {
			err = r.close()
		}
		if err != nil {
			return fatal(err)
		}
		return 0
	}
	res, err := run(b, setup, *name, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

// run sets the workload up, runs passes for the given time and returns the
// metrics: end-to-end ones untraced, per-layer ones traced.
func run(b *bench, setup func(*bench) (runner, error), name string, seconds time.Duration, traced bool) (result, error) {
	setupS := 0.0
	if !traced {
		var err error
		if setupS, err = probeSetup(name, b.seed); err != nil {
			return result{}, err
		}
	}
	r, err := setup(b)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var (
		plain, withTrace []passResult
		plainWall        []float64
		tracedWall       []float64
		indexHits        uint64
		indexMisses      uint64
		tr               = newTracer()
	)
	start := time.Now()
	for i := 0; ; i++ {
		// Traced runs alternate untraced and traced passes, so the
		// trace overhead is measured on neighbouring passes.
		tracing := traced && i%2 == 1
		if i > 0 && time.Since(start) >= seconds && (!traced || len(withTrace) > 0) {
			break
		}
		b.tr = nil
		if tracing {
			b.tr = tr
		}
		b.trials.tr = b.tr
		pr, wall, err := measurePass(b, r)
		if err != nil {
			return result{}, err
		}
		if i == 0 {
			// Process start through the first pass: the index cache's
			// misses are the topologies built, its hits every reuse.
			indexHits, indexMisses = topology.IndexCacheStats()
		}
		if tracing {
			withTrace, tracedWall = append(withTrace, pr), append(tracedWall, wall)
		} else {
			plain, plainWall = append(plain, pr), append(plainWall, wall)
		}
	}
	b.tr, b.trials.tr = nil, nil
	if err := r.close(); err != nil {
		b.fail("close: %v", err)
	}

	res := result{Metrics: map[string]metric{}}
	for _, p := range append(plain, withTrace...) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	if !traced {
		endToEnd(res.Metrics, plain, setupS)
	} else {
		layers := perLayer(b, tr, withTrace)
		layers["bench.trace_overhead_frac"] = median(tracedWall)/median(plainWall) - 1
		layers["topology.index_hits"] = float64(indexHits)
		layers["topology.index_misses"] = float64(indexMisses)
		anatomy(b, tr, layers)
		for _, k := range perLayerNames() {
			res.Metrics[k] = metric{Value: layers[k], Unit: layerUnit(k)}
			delete(layers, k)
		}
		for k := range layers {
			b.fail("per-layer metric %s is not in the declared list", k)
		}
		if err := tr.writeChrome(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, b.seed))); err != nil {
			b.fail("writing the trace: %v", err)
		}
	}
	checkGolden(b)
	res.Correct = len(b.broken) == 0 && res.Failed == 0
	return res, nil
}

// measurePass runs one pass under a root span and times it.
func measurePass(b *bench, r runner) (passResult, float64, error) {
	// Each pass starts from a collected heap, so one pass's garbage is
	// not collected on the next one's time.
	runtime.GC()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	built0, reused0 := experiments.DeployStats()
	if b.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	root := b.tr.begin("bench.pass", 0, -1, 0)
	t0 := time.Now()
	pr, err := r.pass(root)
	wall := float64(time.Since(t0)) / float64(time.Millisecond)
	b.tr.end(root)
	pr.peakRSSMB = peakRSSMB()
	if err != nil {
		return pr, 0, err
	}
	if b.tr != nil {
		runtime.ReadMemStats(&ms1)
		built1, reused1 := experiments.DeployStats()
		pr.add("platform.deploys_built", float64(built1-built0))
		pr.add("platform.deploys_reused", float64(reused1-reused0))
		pr.add("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	}
	return pr, wall, nil
}

// endToEnd fills the end-to-end metrics from the untraced passes. Every
// pass repeats the same operations, so each operation has one latency
// sample per pass, and the benchmark takes the fastest: on this class of
// VM the same serial work varies by ±20% from one second to the next, and
// that noise only ever adds time, so the minimum is the steadiest estimate
// of what the code costs (medians spread twice as wide from run to run;
// see README.md). A phase's time is its operations' fastest latencies laid
// back onto its lanes, plus the shortest time between them; rates divide
// the phase's work by it, and latency percentiles are taken over the
// fastest latencies of all its operations.
func endToEnd(m map[string]metric, passes []passResult, setupS float64) {
	pick := func(f func(passResult) phase) []phase {
		var out []phase
		for _, p := range passes {
			out = append(out, f(p))
		}
		return out
	}
	cold := pick(func(p passResult) phase { return p.cold })
	warm := pick(func(p passResult) phase { return p.warm })
	replay := pick(func(p passResult) phase { return p.replay })
	m["setup_s"] = metric{setupS, "s"}
	m["trials_per_s"] = metric{rate(cold), "1/s"}
	m["replay_trials_per_s"] = metric{rate(replay), "1/s"}
	m["warm_rps"] = metric{float64(len(warm[0].ops)) / bestWall(warm), "1/s"}
	warmLat, coldLat := bestLat(warm), bestLat(cold)
	m["warm_p50_ms"] = metric{percentile(warmLat, 50), "ms"}
	m["warm_p99_ms"] = metric{percentile(warmLat, 99), "ms"}
	m["cold_p50_ms"] = metric{percentile(coldLat, 50), "ms"}
	m["cold_p90_ms"] = metric{percentile(coldLat, 90), "ms"}
	var rss []float64
	for _, p := range passes {
		rss = append(rss, p.peakRSSMB)
	}
	m["max_rss_mb"] = metric{median(rss), "MB"}
}

// fastest returns, for each operation index, its minimum over the passes.
func fastest(vecs [][]float64) []float64 {
	out := slices.Clone(vecs[0])
	for _, v := range vecs[1:] {
		for i, x := range v {
			out[i] = min(out[i], x)
		}
	}
	return out
}

// bestWall is a phase's wall time in seconds built from its fastest
// operations.
func bestWall(ph []phase) float64 {
	var ops [][]float64
	rest := math.Inf(1)
	for _, p := range ph {
		ops = append(ops, p.ops)
		rest = min(rest, max(ms(p.wall)-p.busy(p.ops), 0))
	}
	return (ph[0].busy(fastest(ops)) + rest) / 1000
}

// rate is a phase's items per second of its best wall time.
func rate(ph []phase) float64 { return float64(ph[0].items) / bestWall(ph) }

// bestLat is a phase's fastest per-sample latencies.
func bestLat(ph []phase) []float64 {
	var lat [][]float64
	for _, p := range ph {
		if p.lat == nil {
			p.lat = p.ops
		}
		lat = append(lat, p.lat)
	}
	return fastest(lat)
}

// probeSetup times child processes that each start, set the workload up
// and exit, and returns the median in seconds: process start, package init
// and the workload's own set-up, in a fresh process every time. A
// millisecond-scale set-up gets up to maxProbes samples, since process
// start-up on a shared VM is noisy.
func probeSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	start := time.Now()
	for len(ts) < maxProbes && (len(ts) < minProbes || time.Since(start) < time.Second) {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set size (VmHWM). Where the kernel refuses, peakRSSMB keeps
// reading the peak since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last reset.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countFailures counts the trials a figure or sweep error stands for: each
// contained panic, or one trial for a plain error.
func countFailures(err error) int {
	if err == nil {
		return 0
	}
	var pe *experiments.TrialPanicsError
	if errors.As(err, &pe) {
		return len(pe.Panics)
	}
	return 1
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, ".ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "bytes"), strings.HasSuffix(name, ".bytes_per_record"):
		return "bytes"
	}
	return "count"
}
