package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestProfileAppNames: the profiled app resolves through the workload
// registry, so every driver name and alias works and unknown names fail.
func TestProfileAppNames(t *testing.T) {
	for _, app := range []string{"ffmpeg", "transcode", "mpi", "openmpi", "wordpress", "web",
		"cassandra", "nosql", "microservice", "rpc"} {
		ps := ProfileSpec{App: app, Platform: "cn", Mode: "vanilla", Size: "xLarge"}
		if _, err := ps.resolve(Config{Quick: true}); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	if _, err := (ProfileSpec{App: "redis", Platform: "cn", Size: "xLarge"}).resolve(Config{Quick: true}); err == nil {
		t.Fatal("unknown app")
	}
}

// TestProfileMPIQuickMatchesFigureCell: a quick profile runs the same
// workload as the quick fig4 cells it explains — the registry's Quick
// scaling, not the full-size job.
func TestProfileMPIQuickMatchesFigureCell(t *testing.T) {
	c, err := ProfileSpec{App: "mpi", Platform: "cn", Mode: "vanilla", Size: "xLarge"}.resolve(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := WorkloadSpec{Driver: "mpi"}.Resolve(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ws) != 1 || !reflect.DeepEqual(c.ws[0], want) {
		t.Fatalf("quick mpi profile workloads %+v, want the fig4 quick cell's %+v", c.ws, want)
	}
}

func TestRunProfileVanillaCNShowsThrottles(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run is a long integration test")
	}
	res, err := RunProfile(ProfileSpec{
		App: "wordpress", Platform: "cn", Mode: "vanilla", Size: "xLarge",
	}, Config{Quick: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.MetricSecs <= 0 {
		t.Fatalf("metric %v", res.MetricSecs)
	}
	col := res.Collector
	if col.Events() == 0 {
		t.Fatal("no trace events")
	}
	// The deployment's cgroup must appear in cpudist and pay IO off-CPU time.
	var key string
	for k := range col.OnCPU {
		if strings.HasPrefix(k, "cn") {
			key = k
			break
		}
	}
	if key == "" {
		var keys []string
		for k := range col.OnCPU {
			keys = append(keys, k)
		}
		t.Fatalf("container group missing from cpudist keys %v", keys)
	}
	if col.OffCPU[key][sched.BlockIO] == nil {
		t.Fatal("IO off-CPU histogram missing")
	}
	// A quota'd web burst at xLarge must throttle.
	if col.Throttles()[key] == 0 {
		t.Fatal("vanilla CN under load must throttle")
	}
	var buf bytes.Buffer
	col.Report(&buf)
	if !strings.Contains(buf.String(), "cgroup throttles") {
		t.Fatal("report must include the throttle section")
	}
}

func TestRunProfilePinnedVMCN(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run is a long integration test")
	}
	res, err := RunProfile(ProfileSpec{
		App: "ffmpeg", Platform: "vmcn", Mode: "pinned", Size: "Large",
	}, Config{Quick: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The guest machine's scheduler is the traced one for VMCN.
	if res.Collector.Events() == 0 {
		t.Fatal("guest scheduler events must flow through the inherited trace")
	}
}

func TestRunProfileValidation(t *testing.T) {
	cfg := Config{Quick: true}
	if _, err := RunProfile(ProfileSpec{App: "ffmpeg", Platform: "zz", Mode: "vanilla", Size: "xLarge"}, cfg); err == nil {
		t.Fatal("bad platform")
	}
	if _, err := RunProfile(ProfileSpec{App: "ffmpeg", Platform: "cn", Mode: "zz", Size: "xLarge"}, cfg); err == nil {
		t.Fatal("bad mode")
	}
	if _, err := RunProfile(ProfileSpec{App: "ffmpeg", Platform: "cn", Mode: "vanilla", Size: "petaLarge"}, cfg); err == nil {
		t.Fatal("bad size")
	}
	if _, err := RunProfile(ProfileSpec{App: "redis", Platform: "cn", Mode: "vanilla", Size: "xLarge"}, cfg); err == nil {
		t.Fatal("bad app")
	}
}
