package experiments

import (
	"fmt"

	"repro/internal/irqsim"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ProfileSpec selects one deployment to profile with the BCC-analog
// instruments (the paper's §III-A methodology: cpudist + offcputime while a
// workload runs on a platform).
type ProfileSpec struct {
	// App is a workload driver name or alias (workload.DriverNames).
	App string
	// Platform is one of "bm", "vm", "cn", "vmcn".
	Platform string
	// Mode is "vanilla" or "pinned".
	Mode string
	// Size is a Table II instance name, e.g. "xLarge".
	Size string
}

// ProfileResult bundles the collector with the run's headline metric.
type ProfileResult struct {
	Spec      ProfileSpec
	Collector *trace.Collector
	// MetricSecs is the workload metric (execution/response time, seconds).
	MetricSecs float64
	// Channels are the machine's IO channels after the run (the iostat
	// analog: completion-affinity counters per device). For VM/VMCN these
	// are the guest's paravirtual devices.
	Channels []*irqsim.Channel
}

// resolve maps the spec's names onto the one-trial grid cell it profiles:
// the deployment on cfg's host and the registry workload, scaled exactly as
// the figure cells it explains.
func (ps ProfileSpec) resolve(cfg Config) (gridCell, error) {
	kind, err := platform.ParseKind(ps.Platform)
	if err != nil {
		return gridCell{}, err
	}
	mode, err := platform.ParseMode(ps.Mode)
	if err != nil {
		return gridCell{}, err
	}
	it, ok := InstanceByName(ps.Size)
	if !ok {
		return gridCell{}, fmt.Errorf("experiments: unknown instance %q (Table II names)", ps.Size)
	}
	w, err := WorkloadSpec{Driver: ps.App}.Resolve(cfg.Quick)
	if err != nil {
		return gridCell{}, err
	}
	spec := platform.Spec{Kind: kind, Mode: mode, Cores: it.Cores}
	return gridCell{host: cfg.Host, stack: spec.Stack(), size: it.Cores,
		ws: []workload.Workload{w}, memGB: it.MemGB}, nil
}

// RunProfile runs one trial of the deployment with the trace collector
// attached through the MutateHost seam — which also makes the trial build
// fresh and bypass the trial store, since a traced run must simulate.
func RunProfile(ps ProfileSpec, cfg Config) (*ProfileResult, error) {
	cfg = cfg.withDefaults()
	c, err := ps.resolve(cfg)
	if err != nil {
		return nil, err
	}
	col := trace.NewCollector(nil)
	mutate := cfg.MutateHost
	cfg.MutateHost = func(mc *machine.Config) {
		if mutate != nil {
			mutate(mc)
		}
		mc.Trace = col.Fn()
	}
	r, m, err := runStack(nil, cfg, c.host, c.stack, c.size, c.ws, c.memGB, seedFor(cfg.Seed, 70))
	if err != nil {
		return nil, err
	}
	return &ProfileResult{
		Spec:       ps,
		Collector:  col,
		MetricSecs: r.Metric,
		Channels:   m.IRQ.Channels(),
	}, nil
}
