package experiments

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/irqsim"
)

// The figure golden (fig_all_quick.golden) pins RunScenario. These pin the
// other three entry points into the trial machinery — Sweep, RunCHRSweep
// and RunProfile — so a refactor of the shared runner, workload
// resolution or deploy path cannot move their bytes either. Intentional
// model changes regenerate the files and say so in the change log.

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			name, shortHash(got), shortHash(want), firstDiff(got, want))
	}
}

// TestSweepQuickMatchesGolden runs every workload driver (through a mix of
// canonical names and aliases) across the seven standard series at two
// sizes and pins the text and CSV renderings.
func TestSweepQuickMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 140-trial sweep")
	}
	res, err := Sweep(Config{Seed: 42, Quick: true, Workers: 2}, SweepSpec{
		Cores:     []int{2, 16},
		Workloads: []string{"ffmpeg", "openmpi", "wordpress", "nosql", "microservice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.RenderText(&buf)
	res.RenderCSV(&buf)
	checkGolden(t, "sweep_quick.golden", buf.Bytes())
}

// TestCHRSweepQuickMatchesGolden pins the §IV-A bands at the default seed.
func TestCHRSweepQuickMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("CHR sweep is a long integration test")
	}
	bands, err := RunCHRSweep(Config{Seed: 42, Quick: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderCHR(&buf, bands)
	for _, b := range bands {
		fmt.Fprintf(&buf, "%+v\n", b)
	}
	checkGolden(t, "chr_quick.golden", buf.Bytes())
}

// TestProfileQuickMatchesGolden pins the `pinsim -profile -quick` report —
// headline metric, BCC-analog histograms and iostat — for three
// applications on three platforms.
func TestProfileQuickMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profile runs are long integration tests")
	}
	var buf bytes.Buffer
	for _, ps := range []ProfileSpec{
		{App: "ffmpeg", Platform: "vmcn", Mode: "pinned", Size: "Large"},
		{App: "wordpress", Platform: "cn", Mode: "vanilla", Size: "xLarge"},
		{App: "cassandra", Platform: "vm", Mode: "pinned", Size: "2xLarge"},
	} {
		res, err := RunProfile(ps, Config{Seed: 42, Quick: true})
		if err != nil {
			t.Fatalf("%+v: %v", ps, err)
		}
		fmt.Fprintf(&buf, "profile: %s on %s/%s %s — metric %v, %d trace events\n\n",
			ps.App, ps.Platform, ps.Mode, ps.Size, res.MetricSecs, res.Collector.Events())
		res.Collector.Report(&buf)
		fmt.Fprintf(&buf, "\n== iostat (completion affinity per device) ==\n")
		irqsim.RenderIOStat(&buf, res.Channels)
		fmt.Fprintln(&buf)
	}
	checkGolden(t, "profile_quick.golden", buf.Bytes())
}
