package main

// The sweep-store workload: a quick-profile experiments.Sweep over four
// application classes × every platform, mode and size. Each pass fills a
// fresh on-disk trial store (open, sweep, render, close), then reopens it
// and replays the same grid, which must simulate nothing.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultstore"
)

// sweepReplays is how many reopen-and-replay operations follow each fill:
// few enough that a run holds a dozen passes, since every metric takes
// each operation's fastest repetition over the passes.
const sweepReplays = 60

type sweepRunner struct {
	b     *bench
	cfg   experiments.Config
	spec  experiments.SweepSpec
	n     int
	first []byte
}

func setupSweep(b *bench) (runner, error) {
	r := &sweepRunner{
		b:    b,
		cfg:  experiments.Config{Seed: derive(b.seed, seedSweep, 0), Quick: true, Executor: b.trials},
		spec: experiments.SweepSpec{Workloads: []string{"ffmpeg", "mpi", "wordpress", "cassandra"}},
	}
	// Opening and closing a store once checks the scratch directory is
	// usable before anything is timed.
	st, err := r.open(filepath.Join(b.scratch, "probe"), -1)
	if err != nil {
		return nil, err
	}
	return r, st.Close()
}

func (r *sweepRunner) close() error { return nil }

// open opens the trial store at dir under a "resultstore.open" span.
func (r *sweepRunner) open(dir string, root int) (experiments.TrialStore, error) {
	h := r.b.tr.begin("resultstore.open", 0, root, 0)
	defer r.b.tr.end(h)
	return experiments.OpenTrialStore(dir, resultstore.WithWarnWriter(os.Stderr))
}

// sweep runs and renders the grid against st and closes st; stats are
// taken before the close.
func (r *sweepRunner) sweep(st experiments.TrialStore, root int, collect bool) ([]byte, resultstore.Stats, error) {
	b := r.b
	cfg := r.cfg
	cfg.Memo = st
	if b.tr != nil {
		cfg.Memo = tracedStore{TrialStore: st, tr: b.tr, trial: b.trials}
	}
	h := b.tr.begin("experiments.sweep", 0, root, 0)
	b.trials.under(h, 0, collect)
	res, err := experiments.Sweep(cfg, r.spec)
	b.tr.end(h)
	var buf bytes.Buffer
	if err == nil {
		g := b.tr.begin("experiments.render", 0, root, 0)
		res.RenderText(&buf)
		b.tr.end(g)
	}
	stats := st.Stats()
	c := b.tr.begin("resultstore.close", 0, root, 0)
	cerr := st.Close()
	b.tr.end(c)
	if err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return buf.Bytes(), stats, err
}

// storeFaults counts the durable-store failures in stats.
func storeFaults(s resultstore.Stats) int {
	n := int(s.Corrupt + s.Retries + s.Unpersisted)
	if s.Degraded {
		n++
	}
	return n
}

func (r *sweepRunner) pass(root int) (passResult, error) {
	b := r.b
	var pr passResult
	dir := filepath.Join(b.scratch, fmt.Sprintf("store-%d", r.n))
	r.n++
	defer os.RemoveAll(dir)

	b.trials.take()
	allocs := b.mallocs()
	t0 := time.Now()
	st, err := r.open(dir, root)
	if err != nil {
		return pr, err
	}
	fill, stats, err := r.sweep(st, root, true)
	pr.cold.wall = time.Since(t0)
	pr.add("go.cold_allocs", b.mallocs()-allocs)
	lat, trials, errs := b.trials.take()
	pr.cold.ops, pr.cold.items = lat, int(stats.Misses)
	pr.attempted += trials
	pr.failed += max(errs, countFailures(err)) + storeFaults(stats)
	switch {
	case err != nil:
		b.fail("sweep fill: %v", err)
	case r.first == nil:
		r.first = fill
	case !bytes.Equal(fill, r.first):
		b.fail("sweep: a fill rendered differently from the first fill")
	}
	if stats.Appended != stats.Misses {
		b.fail("sweep fill appended %d records for %d simulations", stats.Appended, stats.Misses)
	}
	pr.add("experiments.trials", float64(trials))
	pr.add("resultstore.misses", float64(stats.Misses))
	pr.add("resultstore.hits", float64(stats.Hits))
	pr.add("resultstore.appended", float64(stats.Appended))
	pr.add("resultstore.disk_bytes", float64(stats.DiskBytes))

	t0 = time.Now()
	for i := 0; i < sweepReplays; i++ {
		t := time.Now()
		st, err := r.open(dir, root)
		if err != nil {
			return pr, err
		}
		out, rs, err := r.sweep(st, root, false)
		pr.warm.ops = append(pr.warm.ops, ms(time.Since(t)))
		pr.attempted++
		pr.replay.items += int(rs.Hits)
		if f := storeFaults(rs); err != nil || f > 0 || rs.Misses != 0 || !bytes.Equal(out, fill) {
			pr.failed++
			b.fail("sweep replay %d: %d misses, %d store faults, identical %v, err %v",
				i, rs.Misses, f, bytes.Equal(out, fill), err)
		}
		if i == 0 {
			pr.add("resultstore.records_loaded", float64(rs.Loaded))
		}
	}
	pr.warm.wall, pr.warm.items = time.Since(t0), sweepReplays
	_, _, errs = b.trials.take()
	pr.failed += errs
	// The replays counted in trials answered, Open included.
	pr.replay.ops, pr.replay.wall = pr.warm.ops, pr.warm.wall
	return pr, nil
}
