package main

// The two seams the program exposes for timing trials from outside:
// Config.Executor (a serial pool whose callbacks are timed) and
// Config.Memo (a TrialStore whose GetOrCompute is split into the store's
// own lookup and the simulation it computes on a miss).

import (
	"sync"
	"time"

	"repro/internal/experiments"
)

// trialTimer is experiments.Pool{Workers: 1} with every trial callback
// timed and, when tracing, recorded as an "experiments.trial" span under
// the current parent. Figures run serially: on two vCPUs a two-worker pool
// shares its cores with the GC and the harness and measures them more
// than the trials.
type trialTimer struct {
	tr *tracer

	mu      sync.Mutex
	parent  int       // span the next trials nest under (-1: adopted later)
	lane    int       // lane of those spans
	lat     []float64 // collected callback latencies (ms) while collect is set
	collect bool
	cur     int // span of the running trial, the store wrapper's parent
	nextID  uint64
	trials  int
	errs    int
}

// under sets the span the following trials nest under and whether their
// latencies are collected.
func (e *trialTimer) under(parent, lane int, collect bool) {
	e.mu.Lock()
	e.parent, e.lane, e.collect = parent, lane, collect
	e.mu.Unlock()
}

// take returns and clears the collected latencies and the trial and error
// counts since the last call.
func (e *trialTimer) take() (lat []float64, trials, errs int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lat, trials, errs = e.lat, e.trials, e.errs
	e.lat, e.trials, e.errs = nil, 0, 0
	return lat, trials, errs
}

// Execute implements experiments.Executor.
func (e *trialTimer) Execute(n int, run func(tc *experiments.TrialContext, i int) error, progress func(done, total int)) error {
	return experiments.Pool{Workers: 1}.Execute(n, func(tc *experiments.TrialContext, i int) error {
		e.mu.Lock()
		e.nextID++
		h := e.tr.begin("experiments.trial", e.nextID, e.parent, e.lane)
		e.cur = h
		e.mu.Unlock()
		t0 := time.Now()
		err := run(tc, i)
		d := time.Since(t0)
		e.tr.end(h)
		e.mu.Lock()
		e.trials++
		if err != nil {
			e.errs++
		}
		if e.collect {
			e.lat = append(e.lat, float64(d)/float64(time.Millisecond))
		}
		e.mu.Unlock()
		return err
	}, progress)
}

// current is the span, lane and id of the trial now running.
func (e *trialTimer) current() (span, lane int, id uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur, e.lane, e.nextID
}

// tracedStore wraps a TrialStore so each GetOrCompute is a
// "resultstore.get_or_compute" span whose compute callback, when the key
// misses, is a nested "simulate.trial" span: the store's self time is the
// lookup (plus the append on a miss), the child is the simulation. Only
// traced runs install it.
type tracedStore struct {
	experiments.TrialStore
	tr    *tracer
	trial *trialTimer
}

// GetOrCompute implements resultstore.Store.
func (s tracedStore) GetOrCompute(key uint64, compute func() (experiments.TrialResult, error)) (experiments.TrialResult, error) {
	parent, lane, id := s.trial.current()
	h := s.tr.begin("resultstore.get_or_compute", id, parent, lane)
	defer s.tr.end(h)
	return s.TrialStore.GetOrCompute(key, func() (experiments.TrialResult, error) {
		c := s.tr.begin("simulate.trial", id, h, lane)
		defer s.tr.end(c)
		return compute()
	})
}
