package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/platform"
)

func TestFigureSamplesExtraction(t *testing.T) {
	f := figure(t, 3)
	ss, err := FigureSamples(f, core.CPUBound, 112)
	if err != nil {
		t.Fatal(err)
	}
	// 6 non-baseline series × 4 instances.
	if len(ss) != 24 {
		t.Fatalf("samples: %d", len(ss))
	}
	for _, s := range ss {
		if s.CHR <= 0 || s.CHR > 1 || s.Ratio <= 0 {
			t.Fatalf("bad sample %+v", s)
		}
		if s.Platform == platform.BM {
			t.Fatal("baseline must be excluded")
		}
		if s.Class != core.CPUBound {
			t.Fatal("class mislabeled")
		}
	}
	if _, err := FigureSamples(f, core.CPUBound, 0); err == nil {
		t.Fatal("hostCPUs validation")
	}
}

func TestFigureClassMapping(t *testing.T) {
	for name, want := range map[string]core.AppClass{
		"fig3": core.CPUBound, "fig4": core.Parallel, "fig5": core.IOBound, "fig6": core.UltraIOBound,
		"fig7": core.CPUBound, "fig8": core.CPUBound, "net": core.IOBound,
	} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		got, err := FigureClass(sc)
		if err != nil || got != want {
			t.Fatalf("%s: %v, %v", name, got, err)
		}
	}
	// Aliases classify like their canonical driver.
	if got, err := FigureClass(Scenario{Workload: &WorkloadSpec{Driver: "nosql"}}); err != nil || got != core.UltraIOBound {
		t.Fatalf("nosql alias: %v, %v", got, err)
	}
	if _, err := FigureClass(Scenario{Cells: []ScenarioCell{{Label: "x", Cores: 2}}}); err == nil {
		t.Fatal("a scenario without a workload has no class")
	}
	if _, err := FigureClass(Scenario{Workload: &WorkloadSpec{Driver: "redis"}}); err == nil {
		t.Fatal("unknown driver")
	}
}

// TestModelFitFromSimulation is the future-work loop closed: fit the
// analytic overhead model on simulator output and check it reads back the
// paper's qualitative structure.
func TestModelFitFromSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("model fit is a long integration test")
	}
	m, err := FitModel([]int{3, 5}, Config{Quick: true, Reps: 2, Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	// VM on CPU-bound work: PTO ≈ 2, tiny PSO (the paper's constant-ratio
	// observation, Fig 3).
	vmCPU, ok := m.Curve(model.Key{Platform: platform.VM, Mode: platform.Pinned, Class: core.CPUBound})
	if !ok {
		t.Fatal("missing pinned-VM CPU curve")
	}
	if vmCPU.PTO < 1.6 || vmCPU.PTO > 2.6 {
		t.Errorf("pinned VM CPU PTO = %.2f, want ≈2", vmCPU.PTO)
	}
	if pso := vmCPU.PSO(0.02); pso > 0.5 {
		t.Errorf("pinned VM PSO(0.02) = %.2f; VMs are PTO-dominated", pso)
	}
	// Vanilla CN on IO work: strong PSO at small CHR that pinning removes
	// (Fig 5's contrast).
	vcn, ok := m.Curve(model.Key{Platform: platform.CN, Mode: platform.Vanilla, Class: core.IOBound})
	if !ok {
		t.Fatal("missing vanilla-CN IO curve")
	}
	pcn, ok := m.Curve(model.Key{Platform: platform.CN, Mode: platform.Pinned, Class: core.IOBound})
	if !ok {
		t.Fatal("missing pinned-CN IO curve")
	}
	smallCHR := 4.0 / 112
	if vcn.PSO(smallCHR) < 2*pcn.PSO(smallCHR)+0.05 {
		t.Errorf("vanilla CN PSO (%.2f) must dwarf pinned CN PSO (%.2f) at small CHR",
			vcn.PSO(smallCHR), pcn.PSO(smallCHR))
	}
	// The model's MinCHR answer for vanilla CN IO must land in a plausible
	// band (the paper recommends 0.14..0.28 for IO-bound).
	chr, err := m.MinCHRFor(platform.CN, platform.Vanilla, core.IOBound, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if chr < 0.01 || chr > 0.6 {
		t.Errorf("MinCHR = %.3f out of any plausible band", chr)
	}
}
