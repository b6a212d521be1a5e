package main

// Per-layer metrics of a traced run: counts from the traced passes, times
// from their spans, and the simulator anatomy — one fixed set of trials
// per application class driven through the layers' public functions.

import (
	"bytes"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// exactCounts are the per-pass counts that must repeat exactly from pass
// to pass (and run to run on one seed); the traced passes are checked
// against each other.
var exactCounts = []string{
	"experiments.trials", "platform.deploys_built", "platform.deploys_reused",
	"resultstore.hits", "resultstore.misses", "resultstore.appended",
	"resultstore.disk_bytes", "resultstore.records_loaded",
	"serve.simulated", "serve.shed", "cache.responses",
}

// meanCounts are per-pass counts reported as their mean over the traced
// passes: they may move with timing (a late second request is served
// warm instead of coalesced; the GC runs when it runs).
var meanCounts = []string{"serve.warm", "serve.coalesced", "go.gc_cycles"}

// selfLayers are the layers the traced wall time is split among; span
// names map to them by their first dot-separated word (the workload
// phases "advisor.*" are the harness's own time).
var selfLayers = []string{"bench", "experiments", "resultstore", "simulate", "serve", "client"}

// anatomyApps are the application classes of the simulator anatomy.
var anatomyApps = []string{"ffmpeg", "mpi", "wordpress", "cassandra"}

// perLayerNames lists every per-layer metric a traced run reports, in
// BENCHMARK.json's order. A layer a workload does not exercise reports 0.
func perLayerNames() []string {
	names := []string{
		"experiments.dispatch_ms", "experiments.render_ms", "experiments.trials",
		"platform.deploys_built", "platform.deploys_reused", "platform.deploy_ms", "platform.redeploy_us",
		"topology.index_hits", "topology.index_misses",
	}
	for _, app := range anatomyApps {
		names = append(names,
			"machine."+app+".run_ms", "sim."+app+".ns_per_event", "sim."+app+".events", "sim."+app+".simulated_s",
			"sched."+app+".switches", "sched."+app+".migrations", "sched."+app+".steals", "sched."+app+".wakeups",
			"cgroups."+app+".throttles")
	}
	names = append(names,
		"resultstore.lookup_us", "resultstore.close_ms", "resultstore.hits", "resultstore.misses",
		"resultstore.appended", "resultstore.disk_bytes", "resultstore.bytes_per_record",
		"resultstore.open_s", "resultstore.records_loaded",
		"serve.warm_handler_us", "serve.warm_transport_us", "serve.cold_handler_ms",
		"serve.warm", "serve.coalesced", "serve.simulated", "serve.shed",
		"cache.responses", "singleflight.coalesced_ratio",
		"go.allocs_per_trial", "go.gc_cycles",
	)
	for _, l := range selfLayers {
		names = append(names, l+".self_ms")
	}
	return append(names, "bench.traced_wall_ms", "bench.trace_overhead_frac")
}

// perLayer derives the per-layer metrics from the traced passes.
func perLayer(b *bench, tr *tracer, passes []passResult) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(passes))
	first := passes[0].counts
	for _, name := range exactCounts {
		m[name] = first[name]
		for _, p := range passes[1:] {
			if p.counts[name] != first[name] {
				b.fail("%s: %v in one traced pass, %v in another", name, first[name], p.counts[name])
			}
		}
	}
	for _, name := range append(meanCounts, "go.cold_allocs") {
		for _, p := range passes {
			m[name] += p.counts[name] / n
		}
	}
	if t := m["experiments.trials"]; t > 0 {
		m["go.allocs_per_trial"] = m["go.cold_allocs"] / t
	}
	delete(m, "go.cold_allocs")
	if a := m["resultstore.appended"]; a > 0 {
		m["resultstore.bytes_per_record"] = m["resultstore.disk_bytes"] / a
	}
	if s := m["serve.simulated"] + m["serve.coalesced"]; s > 0 {
		m["singleflight.coalesced_ratio"] = m["serve.coalesced"] / s
	}

	tr.adopt("experiments.trial", "serve.handler", "simulated")
	perPass := func(ds []time.Duration) float64 { return ms(sum(ds)) / n }
	meanOf := func(ds []time.Duration, unit time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		return float64(sum(ds)) / float64(len(ds)) / float64(unit)
	}
	m["experiments.render_ms"] = perPass(tr.durations("experiments.render", ""))
	m["experiments.dispatch_ms"] = ms(dispatch(tr)) / n
	lookups := tr.selfOf("resultstore.get_or_compute")
	m["resultstore.lookup_us"] = meanOf(lookups, time.Microsecond)
	m["resultstore.open_s"] = meanOf(tr.durations("resultstore.open", ""), time.Second)
	m["resultstore.close_ms"] = meanOf(tr.durations("resultstore.close", ""), time.Millisecond)
	m["serve.warm_handler_us"] = meanOf(tr.durations("serve.handler", "warm"), time.Microsecond)
	m["serve.warm_transport_us"] = meanOf(tr.transport("warm"), time.Microsecond)
	m["serve.cold_handler_ms"] = meanOf(tr.coldHandlers(), time.Millisecond)

	self, wall := tr.selfTimes("bench.pass")
	byLayer := map[string]time.Duration{}
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		if layer == "advisor" {
			layer = "bench"
		}
		byLayer[layer] += d
	}
	for _, l := range selfLayers {
		m[l+".self_ms"] = ms(byLayer[l]) / n
	}
	m["bench.traced_wall_ms"] = ms(wall) / n
	return m
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// selfOf returns, for every span named name, its duration minus its
// children's.
func (t *tracer) selfOf(name string) []time.Duration {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start-child[i])
		}
	}
	return out
}

// dispatch is the figure, sweep and simulating-handler time not spent in
// trial callbacks: planning, aggregation and, for the advisor, resolving
// the request and building the response.
func dispatch(t *tracer) time.Duration {
	trials := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.name == "experiments.trial" && s.parent >= 0 && s.end >= 0 {
			trials[s.parent] += s.end - s.start
		}
	}
	var d time.Duration
	for i, s := range t.spans {
		owner := s.name == "experiments.figure" || s.name == "experiments.sweep" ||
			(s.name == "serve.handler" && s.arg == "simulated")
		if owner && s.end >= 0 && t.rootName(i) == "bench.pass" {
			d += s.end - s.start - trials[i]
		}
	}
	return d
}

func (t *tracer) rootName(i int) string {
	for t.spans[i].parent >= 0 {
		i = t.spans[i].parent
	}
	return t.spans[i].name
}

// transport returns, for every handler span with the given provenance,
// the client-observed latency minus the handler time: the client, net/http
// and loopback share of the request.
func (t *tracer) transport(source string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == "serve.handler" && s.arg == source && s.parent >= 0 && s.end >= 0 {
			c := t.spans[s.parent]
			out = append(out, (c.end-c.start)-(s.end-s.start))
		}
	}
	return out
}

// coldHandlers returns the handler times of the advisor's cold-phase
// requests, leader and coalesced alike.
func (t *tracer) coldHandlers() []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name != "serve.handler" || s.parent < 0 || s.end < 0 {
			continue
		}
		if c := t.spans[s.parent]; c.parent >= 0 && t.spans[c.parent].name == "advisor.cold" {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// anatomyCell is the instance every anatomy trial runs on (Table II
// xLarge), inside every application's figure range.
var anatomyCell = experiments.ScenarioCell{Label: "xLarge", Cores: 4, MemGB: 16}

// anatomy drives one fixed set of trials per application class — the
// paper's seven platform series on one instance, full profile — through
// DeployStack, RedeployStack, workload.EnvFor/Spawn and Machine.Run, and
// records each layer's time and the simulator's exact counts. Each trial's
// metric must equal what the same trial gives through RunScenario.
func anatomy(b *bench, tr *tracer, m map[string]float64) {
	root := tr.begin("bench.anatomy", 0, -1, 0)
	defer tr.end(root)
	host := topology.PaperHost()
	hv := hypervisor.DefaultParams()
	var deploys, redeploys []time.Duration
	for ai, app := range anatomyApps {
		base := derive(b.seed, seedAnatomy, uint64(ai))
		ws := experiments.WorkloadSpec{Driver: app}
		w, err := ws.Resolve(false)
		if err != nil {
			b.fail("anatomy %s: %v", app, err)
			continue
		}
		sc := experiments.Scenario{Name: "anatomy-" + app, Reps: 1, Workload: &ws, Cells: []experiments.ScenarioCell{anatomyCell}}
		var run time.Duration
		var events, switches, migrations, steals, wakeups, throttles uint64
		var simulated sim.Time
		var metrics []float64
		for si, sk := range platform.StandardSeries() {
			spec := platform.Spec{Kind: sk.Kind, Mode: sk.Mode}
			sc.Series = append(sc.Series, experiments.ScenarioSeries{Platform: &spec})
			seed := sim.Substream(base, uint64(si), 0, 0) // RunScenario's (series, cell, rep) derivation
			hostCfg := machine.HostDefaults(host, seed)
			stack := spec.Stack()
			trial := tr.begin("anatomy.trial", uint64(si), root, 0)

			h := tr.begin("platform.deploy", 0, trial, 0)
			t0 := time.Now()
			d, err := platform.DeployStack(stack, anatomyCell.Cores, hostCfg, hv, seed)
			deploys = append(deploys, time.Since(t0))
			tr.end(h)
			if err != nil {
				b.fail("anatomy %s %s: deploy: %v", app, spec.Label(), err)
				tr.end(trial)
				continue
			}
			h = tr.begin("platform.redeploy", 0, trial, 0)
			t0 = time.Now()
			err = platform.RedeployStack(d, stack, anatomyCell.Cores, hostCfg, hv, seed)
			redeploys = append(redeploys, time.Since(t0))
			tr.end(h)
			if err != nil {
				b.fail("anatomy %s %s: redeploy: %v", app, spec.Label(), err)
				tr.end(trial)
				continue
			}

			h = tr.begin("workload.spawn", 0, trial, 0)
			var insts []workload.Instance
			for _, slot := range d.Tenants {
				env := workload.EnvFor(d.M, slot.Group, slot.Affinity, slot.Cores)
				env.MemGB = anatomyCell.MemGB
				insts = append(insts, w.Spawn(env))
			}
			tr.end(h)

			h = tr.begin("machine.run", 0, trial, 0)
			limit := 30 * 60 * sim.Second // experiments.Config's default time limit
			t0 = time.Now()
			res := d.M.Run(limit)
			run += time.Since(t0)
			tr.end(h)
			tr.end(trial)

			metric := limit.Seconds()
			if !res.TimedOut {
				metric = 0
				for _, inst := range insts {
					metric += inst.Metric(res)
				}
				metric /= float64(len(insts))
			}
			metrics = append(metrics, metric)
			events += res.Events
			simulated += d.M.Eng.Now()
			bd := res.Breakdown
			switches += bd.Switches
			migrations += bd.Migrations
			steals += bd.Steals
			wakeups += bd.Wakeups
			throttles += bd.Throttles
		}
		m["machine."+app+".run_ms"] = ms(run)
		if events > 0 {
			m["sim."+app+".ns_per_event"] = float64(run) / float64(events)
		}
		m["sim."+app+".events"] = float64(events)
		m["sim."+app+".simulated_s"] = simulated.Seconds()
		m["sched."+app+".switches"] = float64(switches)
		m["sched."+app+".migrations"] = float64(migrations)
		m["sched."+app+".steals"] = float64(steals)
		m["sched."+app+".wakeups"] = float64(wakeups)
		m["cgroups."+app+".throttles"] = float64(throttles)

		fig, err := experiments.RunScenario(experiments.Config{Seed: base, Reps: 1, Executor: experiments.Pool{Workers: 1}}, sc)
		if err != nil {
			b.fail("anatomy %s through RunScenario: %v", app, err)
			continue
		}
		for si, got := range metrics {
			if want := fig.Series[si].Cells[0].Summary.Mean; got != want {
				b.fail("anatomy %s %s: metric %v, RunScenario gives %v", app, fig.Series[si].Label, got, want)
			}
		}
	}
	m["platform.deploy_ms"] = float64(sum(deploys)) / float64(len(deploys)) / float64(time.Millisecond)
	m["platform.redeploy_us"] = float64(sum(redeploys)) / float64(len(redeploys)) / float64(time.Microsecond)
}

// goldenPath is the committed byte-exact output of `pinsim -fig all -quick`.
const goldenPath = "internal/experiments/testdata/fig_all_quick.golden"

// checkGolden renders Figs 3-8 at the quick profile (seed 42, serial) and
// compares the bytes with the committed golden.
func checkGolden(b *bench) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		b.fail("golden: %v", err)
		return
	}
	var buf bytes.Buffer
	cfg := experiments.Config{Seed: 42, Quick: true, Workers: 1}
	for n := 3; n <= 8; n++ {
		f, err := experiments.RunFigure(n, cfg)
		if err != nil {
			b.fail("golden: figure %d: %v", n, err)
			return
		}
		f.RenderText(&buf)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		b.fail("quick fig all differs from %s", goldenPath)
	}
}
