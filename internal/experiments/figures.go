package experiments

// The paper's figures are data, not code: each is a Scenario registered in
// builtin.go and executed by the generic scenario engine (scenario.go);
// RunFigure is the by-number dispatch into that registry. This file holds
// the analyses built on figure-shaped trials: the §IV-A CHR sweep and the
// §IV PTO/PSO decomposition.

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunFigure dispatches by figure number 3..8 through the scenario registry.
func RunFigure(n int, cfg Config) (Figure, error) {
	sc, err := figureScenario(n)
	if err != nil {
		return Figure{}, err
	}
	return RunScenario(cfg, sc)
}

// figureScenario looks up the registered scenario of paper figure n.
func figureScenario(n int) (Scenario, error) {
	if n < 3 || n > 8 {
		return Scenario{}, fmt.Errorf("experiments: no figure %d (have 3..8)", n)
	}
	name := fmt.Sprintf("fig%d", n)
	sc, ok := ScenarioByName(name)
	if !ok {
		return Scenario{}, UnknownScenarioError(name)
	}
	return sc, nil
}

// CHRBand is the §IV-A result for one application class: the CHR range in
// which the container's PSO stops being significant.
type CHRBand struct {
	App       string
	LowCHR    float64
	HighCHR   float64
	LowName   string
	HighName  string
	PaperLow  float64
	PaperHigh float64
}

// RunCHRSweep reproduces the §IV-A analysis: sweep instance sizes, find the
// first size where the vanilla container's overhead ratio over bare metal
// (its PSO) drops below the per-class significance threshold, and report
// the bracketing CHR band.
func RunCHRSweep(cfg Config) ([]CHRBand, error) {
	cfg = cfg.withDefaults()
	warnMemoMutateHost(cfg)
	reps := cfg.reps(5)
	apps := []struct {
		name, driver, first, last string
		threshold, pLow, pHigh    float64
	}{
		{"FFmpeg", "ffmpeg", "Large", "4xLarge", 1.10, 0.07, 0.14},
		{"WordPress", "wordpress", "xLarge", "16xLarge", 1.25, 0.14, 0.28},
		{"Cassandra", "cassandra", "xLarge", "16xLarge", 1.25, 0.28, 0.57},
	}
	kinds := []platform.Kind{platform.CN, platform.BM}
	hostCPUs := float64(cfg.Host.NumCPUs())
	var out []CHRBand
	for ai, a := range apps {
		w, err := WorkloadSpec{Driver: a.driver}.Resolve(cfg.Quick)
		if err != nil {
			return nil, err
		}
		ws := []workload.Workload{w}
		instances := Instances(a.first, a.last)
		band := CHRBand{App: a.name, PaperLow: a.pLow, PaperHigh: a.pHigh}
		prev := instances[0]
		found := false
		for ii, it := range instances {
			// The outer size sweep is sequential by nature (it stops at the
			// first size whose PSO is insignificant), but each step's
			// kinds × reps block is an independent grid and fans out.
			cells := make([]gridCell, len(kinds))
			seeds := make([]uint64, len(kinds)*reps)
			for ki, kind := range kinds {
				spec := platform.Spec{Kind: kind, Mode: platform.Vanilla, Cores: it.Cores}
				cells[ki] = gridCell{host: cfg.Host, stack: spec.Stack(), size: it.Cores, ws: ws, memGB: it.MemGB}
				for rep := 0; rep < reps; rep++ {
					seeds[ki*reps+rep] = seedFor(cfg.Seed, 40, uint64(ai), uint64(ii), uint64(kind), uint64(rep))
				}
			}
			outcomes, err := runGrid(cfg, cells, reps, seeds, nil)
			if err != nil {
				return nil, err
			}
			pso := stats.Summarize(outcomes[0].vals).Mean / stats.Summarize(outcomes[1].vals).Mean
			if pso < a.threshold {
				band.LowCHR = float64(prev.Cores) / hostCPUs
				band.HighCHR = float64(it.Cores) / hostCPUs
				band.LowName = prev.Name
				band.HighName = it.Name
				found = true
				break
			}
			prev = it
		}
		if !found {
			band.LowCHR = float64(prev.Cores) / hostCPUs
			band.HighCHR = 1
			band.LowName = prev.Name
			band.HighName = "host"
		}
		out = append(out, band)
	}
	return out, nil
}

// Decomposition is the §IV PTO/PSO split for one series of a figure.
type Decomposition struct {
	Label string
	// PTO is the platform-type overhead: the ratio that remains at the
	// largest instance (size-invariant component).
	PTO float64
	// PSO per x-label: the size-dependent component (ratio - PTO).
	PSO []float64
}

// Decompose splits each series' overhead ratios into PTO and PSO.
func Decompose(fig Figure) []Decomposition {
	var out []Decomposition
	for si, s := range fig.Series {
		if si == fig.BaselineIdx || len(s.Cells) == 0 {
			continue
		}
		d := Decomposition{Label: s.Label, PTO: s.Cells[len(s.Cells)-1].Ratio}
		for _, c := range s.Cells {
			pso := c.Ratio - d.PTO
			if pso < 0 {
				pso = 0
			}
			d.PSO = append(d.PSO, pso)
		}
		out = append(out, d)
	}
	return out
}
