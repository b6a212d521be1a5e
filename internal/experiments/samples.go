package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// FigureClass maps a scenario onto the paper's application taxonomy
// (Table I) by its workload driver: the scenario's default workload, else
// the first cell that names one. The model fit and the advisor's
// recommendation both classify through it.
func FigureClass(sc Scenario) (core.AppClass, error) {
	ws := sc.Workload
	for i := 0; ws == nil && i < len(sc.Cells); i++ {
		ws = sc.Cells[i].Workload
	}
	if ws == nil {
		return 0, fmt.Errorf("scenario has no workload to classify")
	}
	name, err := workload.CanonicalDriver(ws.Driver)
	if err != nil {
		return 0, err
	}
	switch name {
	case "ffmpeg":
		return core.CPUBound, nil
	case "mpi":
		return core.Parallel, nil
	case "wordpress", "microservice":
		return core.IOBound, nil
	case "cassandra":
		return core.UltraIOBound, nil
	}
	return 0, fmt.Errorf("no application class for driver %q", name)
}

// FigureSamples converts one regenerated figure into overhead samples for
// the analytic model (internal/model): each non-baseline, in-range cell
// becomes a (platform, mode, class, CHR, ratio) point. hostCPUs is the
// host's logical CPU count (the CHR denominator).
func FigureSamples(f Figure, class core.AppClass, hostCPUs int) ([]model.Sample, error) {
	if hostCPUs <= 0 {
		return nil, fmt.Errorf("experiments: hostCPUs must be positive")
	}
	var out []model.Sample
	for si, s := range f.Series {
		if si == f.BaselineIdx {
			continue
		}
		// Stack-only scenario series carry no canned platform identity;
		// their zero Spec would masquerade as Vanilla BM in the model fit.
		if !s.HasPlatform {
			continue
		}
		for ci, cell := range s.Cells {
			if ci >= len(f.XLabels) || cell.OutOfRange || cell.Ratio <= 0 {
				continue
			}
			it, ok := InstanceByName(f.XLabels[ci])
			if !ok {
				continue // non-instance x-axis (Fig 7/8)
			}
			out = append(out, model.Sample{
				Platform: s.Spec.Kind,
				Mode:     s.Spec.Mode,
				Class:    class,
				CHR:      float64(it.Cores) / float64(hostCPUs),
				Ratio:    cell.Ratio,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: figure %s produced no samples", f.ID)
	}
	return out, nil
}

// FitModel regenerates the given figures and fits the analytic overhead
// model on their cells — the executable form of the paper's future-work
// item (§VI): overhead as a function of platform isolation level and CHR.
func FitModel(figs []int, cfg Config) (*model.Model, error) {
	cfg = cfg.withDefaults()
	var samples []model.Sample
	for _, n := range figs {
		sc, err := figureScenario(n)
		if err != nil {
			return nil, err
		}
		class, err := FigureClass(sc)
		if err != nil {
			return nil, err
		}
		f, err := RunScenario(cfg, sc)
		if err != nil {
			return nil, err
		}
		ss, err := FigureSamples(f, class, cfg.Host.NumCPUs())
		if err != nil {
			return nil, err
		}
		samples = append(samples, ss...)
	}
	return model.Fit(samples)
}
