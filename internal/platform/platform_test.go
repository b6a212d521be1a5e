package platform

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

func deploy(t *testing.T, spec Spec) *Deployment {
	t.Helper()
	d, err := Deploy(spec, machine.HostDefaults(topology.PaperHost(), 1), hypervisor.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeployBM(t *testing.T) {
	d := deploy(t, Spec{Kind: BM, Mode: Vanilla, Cores: 4})
	if d.Group != nil {
		t.Fatal("BM must not have a cgroup")
	}
	if d.Affinity.Count() != 4 {
		t.Fatalf("BM core limiting: %v", d.Affinity)
	}
	if d.M.Topo.NumCPUs() != 112 {
		t.Fatal("BM runs on the host machine")
	}
	// GRUB-analog enumeration spreads across sockets.
	if d.M.Topo.SocketsSpanned(d.Affinity) != 4 {
		t.Fatalf("interleaved BM affinity spans %d sockets", d.M.Topo.SocketsSpanned(d.Affinity))
	}
}

func TestDeployVM(t *testing.T) {
	d := deploy(t, Spec{Kind: VM, Mode: Pinned, Cores: 8})
	if d.Group != nil || !d.Affinity.IsEmpty() {
		t.Fatal("VM tasks are unrestricted inside the guest")
	}
	if d.M.Topo.NumCPUs() != 8 {
		t.Fatalf("guest size %d", d.M.Topo.NumCPUs())
	}
	if d.M.Cfg.ComputeTax <= 1 {
		t.Fatal("guest must carry the virtualization tax")
	}
}

func TestDeployCN(t *testing.T) {
	v := deploy(t, Spec{Kind: CN, Mode: Vanilla, Cores: 4})
	if v.Group == nil || v.Group.QuotaCores != 4 {
		t.Fatal("vanilla CN must be quota-provisioned")
	}
	p := deploy(t, Spec{Kind: CN, Mode: Pinned, Cores: 4})
	if p.Group == nil || p.Group.CPUs.Count() != 4 {
		t.Fatal("pinned CN must be cpuset-provisioned")
	}
	if p.Container == nil || p.Container.CHR() == 0 {
		t.Fatal("container bookkeeping missing")
	}
}

func TestDeployVMCN(t *testing.T) {
	d := deploy(t, Spec{Kind: VMCN, Mode: Vanilla, Cores: 4})
	if d.M.Topo.NumCPUs() != 4 {
		t.Fatal("VMCN runs inside the guest")
	}
	if d.Group == nil {
		t.Fatal("VMCN needs the guest-side cgroup")
	}
	if d.M.Cfg.NestedSwitchCost == 0 {
		t.Fatal("VMCN guest must pay nested accounting")
	}
}

func TestDeployValidation(t *testing.T) {
	host := machine.HostDefaults(topology.PaperHost(), 1)
	hv := hypervisor.DefaultParams()
	if _, err := Deploy(Spec{Kind: CN, Cores: 0}, host, hv, 1); err == nil {
		t.Fatal("zero cores must fail")
	}
	if _, err := Deploy(Spec{Kind: VM, Cores: 500}, host, hv, 1); err == nil {
		t.Fatal("oversize instance must fail")
	}
	if _, err := Deploy(Spec{Kind: Kind(42), Cores: 2}, host, hv, 1); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestLabelsAndSeries(t *testing.T) {
	if (Spec{Kind: CN, Mode: Pinned}).Label() != "Pinned CN" {
		t.Fatal("label broken")
	}
	series := StandardSeries()
	if len(series) != 7 {
		t.Fatalf("standard series: %d", len(series))
	}
	if series[6].Kind != BM {
		t.Fatal("BM must be the last (baseline) series")
	}
	for _, k := range []Kind{BM, VM, CN, VMCN, Kind(9)} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if Vanilla.String() != "Vanilla" || Pinned.String() != "Pinned" {
		t.Fatal("mode names")
	}
}

func TestEachPlatformRunsASmokeTask(t *testing.T) {
	for _, s := range StandardSeries() {
		spec := Spec{Kind: s.Kind, Mode: s.Mode, Cores: 2}
		d := deploy(t, spec)
		d.M.Spawn(sched.TaskSpec{
			Name:     "smoke",
			Group:    d.Group,
			Affinity: d.Affinity,
			Program:  sched.Sequence(sched.Compute(5 * sim.Millisecond)),
		}, 0)
		res := d.M.Run(sim.Second)
		if res.TimedOut || len(res.Responses) != 1 {
			t.Fatalf("%s: smoke task failed: %+v", spec.Label(), res)
		}
	}
}

func TestParsePlatformAndMode(t *testing.T) {
	for s, want := range map[string]Kind{
		"bm": BM, "VM": VM, "cn": CN, "VMCN": VMCN,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("xen"); err == nil {
		t.Fatal("unknown platform")
	}
	if m, err := ParseMode(""); err != nil || m != Vanilla {
		t.Fatal("empty mode defaults to vanilla")
	}
	if m, err := ParseMode("Pinned"); err != nil || m != Pinned {
		t.Fatal("pinned mode")
	}
	if _, err := ParseMode("floating"); err == nil {
		t.Fatal("unknown mode")
	}
}
