package main

// The figs-cpu and figs-mpi-io workloads: cold regeneration of a set of the
// paper's figures at the full profile, each pass with a fresh in-memory
// trial store (pinsim without -store), followed by warm regenerations of
// the same figures from that store (pinsim re-run against a warm -store).

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// figWarmRegens is how many warm regenerations follow each cold one: ten
// operations lie beyond warm_p99_ms.
const figWarmRegens = 1000

type figsRunner struct {
	b     *bench
	scs   []experiments.Scenario
	cfg   experiments.Config
	first []byte // the first pass's cold render; every pass must match it
}

// setupFigs returns the set-up of a figure workload: the named registered
// scenarios at the full profile with reps repetitions per cell (every cell
// of every figure stays in), seeded from the workload seed.
func setupFigs(names []string, reps int) func(b *bench) (runner, error) {
	return func(b *bench) (runner, error) {
		r := &figsRunner{b: b}
		for _, n := range names {
			sc, ok := experiments.ScenarioByName(n)
			if !ok {
				return nil, experiments.UnknownScenarioError(n)
			}
			r.scs = append(r.scs, sc)
		}
		r.cfg = experiments.Config{Seed: derive(b.seed, seedFigure, 0), Reps: reps, Executor: b.trials}
		return r, nil
	}
}

func (r *figsRunner) close() error { return nil }

func (r *figsRunner) pass(root int) (passResult, error) {
	b := r.b
	var pr passResult
	memo := experiments.NewTrialMemo()
	cfg := r.cfg
	cfg.Memo = memo
	if b.tr != nil {
		cfg.Memo = tracedStore{TrialStore: memo, tr: b.tr, trial: b.trials}
	}

	b.trials.take()
	allocs := b.mallocs()
	t0 := time.Now()
	cold, err := r.regenerate(cfg, root, true)
	pr.cold.wall = time.Since(t0)
	pr.add("go.cold_allocs", b.mallocs()-allocs)
	lat, trials, errs := b.trials.take()
	pr.cold.ops, pr.cold.items = lat, int(memo.Misses())
	pr.attempted += trials
	pr.failed += max(errs, countFailures(err))
	switch {
	case err != nil:
		b.fail("cold regeneration: %v", err)
	case r.first == nil:
		r.first = cold
	case !bytes.Equal(cold, r.first):
		b.fail("figures: a round rendered differently from the first round")
	}
	st := memo.Stats()
	pr.add("experiments.trials", float64(trials))
	pr.add("resultstore.misses", float64(st.Misses))

	hits0 := memo.Hits()
	t0 = time.Now()
	for i := 0; i < figWarmRegens; i++ {
		t := time.Now()
		warm, err := r.regenerate(cfg, root, false)
		pr.warm.ops = append(pr.warm.ops, ms(time.Since(t)))
		pr.attempted++
		if err != nil || !bytes.Equal(warm, cold) {
			pr.failed++
			b.fail("warm regeneration %d differs from the cold render (err %v)", i, err)
		}
	}
	pr.warm.wall, pr.warm.items = time.Since(t0), figWarmRegens
	_, _, errs = b.trials.take()
	pr.failed += errs
	// The replay is the warm regenerations counted in trials answered.
	pr.replay = pr.warm
	pr.replay.items = int(memo.Hits() - hits0)
	pr.add("resultstore.hits", float64(memo.Hits()))
	if memo.Misses() != st.Misses {
		b.fail("warm regenerations simulated %d trials", memo.Misses()-st.Misses)
	}
	return pr, nil
}

// regenerate runs and renders every figure of the set through cfg.
func (r *figsRunner) regenerate(cfg experiments.Config, root int, collect bool) ([]byte, error) {
	b := r.b
	var buf bytes.Buffer
	for i, sc := range r.scs {
		h := b.tr.begin("experiments.figure", uint64(i), root, 0)
		b.trials.under(h, 0, collect)
		fig, err := experiments.RunScenario(cfg, sc)
		b.tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		g := b.tr.begin("experiments.render", uint64(i), root, 0)
		fig.RenderText(&buf)
		b.tr.end(g)
	}
	return buf.Bytes(), nil
}
