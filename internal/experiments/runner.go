package experiments

// The trial runner. Every figure and sweep in this package reduces to a
// grid of independent trials: one (series, cell, repetition) simulation
// whose seed is derived up front with sim.Substream, so the trial's result
// is a pure function of (Config, host, spec, workload, memGB, seed). That
// purity is what makes both fan-out and durability safe: an Executor
// (executor.go) decides which trials run here and on how many goroutines,
// and a TrialStore (trialstore.go) replays any trial an earlier run — in
// this process or any other — already simulated. Results are always
// written to index-addressed slots, so the assembled figure is
// bit-identical no matter how trials were scheduled, sharded or cached.

import (
	"io"
	"os"
	"sync"

	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TrialResult is the memoizable outcome of one simulated trial.
type TrialResult struct {
	// Metric is the workload metric in seconds (per-figure definition).
	Metric float64
	// Breakdown is the machine's overhead attribution for the run.
	Breakdown sched.Breakdown
}

// forEachTrial executes run(0..n-1) through the configured executor and
// reports the first (lowest-index) error. The default is Pool{Workers:
// cfg.Workers} — the atomic-claim worker fan-out, running on the calling
// goroutine at Workers 1. cfg.Progress, when set, is observed after every
// completed trial.
func forEachTrial(cfg Config, n int, run func(tc *TrialContext, i int) error) error {
	ex := cfg.Executor
	if ex == nil {
		ex = Pool{Workers: cfg.Workers}
	}
	return ex.Execute(n, run, cfg.Progress)
}

// gridCell is one resolved cell of a trial grid: each of its repetitions
// deploys stack at size on host and runs ws (one workload shared by every
// tenant slot, or exactly one per slot) with memGB of instance memory.
type gridCell struct {
	host  *topology.Topology
	stack platform.Stack
	size  int
	ws    []workload.Workload
	memGB int
}

// cellOutcome is one grid cell's repetitions: every metric in repetition
// order and the last repetition's overhead breakdown.
type cellOutcome struct {
	vals []float64
	bd   sched.Breakdown
}

// runGrid is the one trial loop behind every experiment. Trial i is
// repetition i%reps of cells[i/reps], seeded seeds[i]; callers derive the
// seeds (grid coordinates, cell content, ...) and aggregate the outcomes
// their own way. wrap, when non-nil, labels a failing trial's error with
// its cell index. The per-trial closure allocates nothing: cells, seeds
// and result slots are all resolved before the fan-out.
func runGrid(cfg Config, cells []gridCell, reps int, seeds []uint64, wrap func(ci int, err error) error) ([]cellOutcome, error) {
	results := make([]TrialResult, len(cells)*reps)
	err := forEachTrial(cfg, len(results), func(tc *TrialContext, i int) error {
		c := &cells[i/reps]
		r, err := runTrial(tc, cfg, c.host, c.stack, c.size, c.ws, c.memGB, seeds[i])
		if err != nil {
			if wrap != nil {
				return wrap(i/reps, err)
			}
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(results))
	for i, r := range results {
		vals[i] = r.Metric
	}
	out := make([]cellOutcome, len(cells))
	for ci := range out {
		lo, hi := ci*reps, (ci+1)*reps
		out[ci] = cellOutcome{vals: vals[lo:hi:hi], bd: results[hi-1].Breakdown}
	}
	return out, nil
}

// runTrial is runStack behind the trial store: on a hit the simulation is
// skipped entirely and the stored result replayed — from memory within a
// process, from disk across processes when the store is durable. Trials
// with a MutateHost hook bypass the store — an arbitrary function cannot
// be fingerprinted.
func runTrial(tc *TrialContext, cfg Config, host *topology.Topology, stack platform.Stack, size int, ws []workload.Workload, memGB int, seed uint64) (TrialResult, error) {
	if cfg.Memo == nil || cfg.MutateHost != nil {
		r, _, err := runStack(tc, cfg, host, stack, size, ws, memGB, seed)
		return r, err
	}
	key := trialKey(cfg, host, stack, size, ws, memGB, seed)
	return cfg.Memo.GetOrCompute(key, func() (TrialResult, error) {
		r, _, err := runStack(tc, cfg, host, stack, size, ws, memGB, seed)
		return r, err
	})
}

// The MutateHost/Memo notice goes through the same rate-limited warner
// machinery as the store layer: the first bypassing entry point prints one
// line, later ones are only counted, and the CLIs surface the count in -v
// stats (MemoBypassCount).
const memoBypassCategory = "memo-bypass"

var (
	memoWarnMu sync.Mutex
	memoWarner = resultstore.NewWarner(os.Stderr, 1)
)

// swapMemoWarner replaces the process-wide memo-bypass warner (test seam)
// and returns the previous one.
func swapMemoWarner(w *resultstore.Warner) *resultstore.Warner {
	memoWarnMu.Lock()
	defer memoWarnMu.Unlock()
	old := memoWarner
	memoWarner = w
	return old
}

// newMemoWarner builds a warner with the memo-bypass policy (one printed
// line) over an arbitrary sink.
func newMemoWarner(w io.Writer) *resultstore.Warner {
	return resultstore.NewWarner(w, 1)
}

// MemoBypassCount reports how many experiment entry points ran with
// Config.Memo ignored because Config.MutateHost was set — the -v
// statistic backing the single printed warning.
func MemoBypassCount() uint64 {
	memoWarnMu.Lock()
	defer memoWarnMu.Unlock()
	return memoWarner.Count(memoBypassCategory)
}

// warnMemoMutateHost surfaces the documented MutateHost/Memo interaction
// instead of silently ignoring the memo: every experiment entry point calls
// it before fanning trials out.
func warnMemoMutateHost(cfg Config) {
	if cfg.Memo == nil || cfg.MutateHost == nil {
		return
	}
	memoWarnMu.Lock()
	defer memoWarnMu.Unlock()
	memoWarner.Warnf(memoBypassCategory,
		"experiments: warning: Config.MutateHost is set, so Config.Memo is ignored — an arbitrary host mutation cannot be fingerprinted into a cache key")
}
