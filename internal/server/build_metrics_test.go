package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// TestProfileBuildMetrics: server.New installs the sketch timing
// observer, so profile builds and extensions that happen while the
// server is up surface their per-phase breakdown in /metrics.
func TestProfileBuildMetrics(t *testing.T) {
	f := datagen.OECD(10000, 42)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, 5, false, Options{}))
	t.Cleanup(ts.Close)

	// A build on workers and its extension after server construction,
	// then the first read of a sample array the extension left as slot
	// writes: their phase timings must flow through the observer into
	// the server's registry.
	row := make([]string, f.Cols())
	for c := range row {
		row[c] = f.Column(c).StringAt(0)
	}
	batch := frame.RowBatch{}
	for range 300 {
		batch.Records = append(batch.Records, row)
	}
	grown, err := f.AppendRows(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 64, Workers: 2}).Extend(grown)
	if err != nil {
		t.Fatal(err)
	}
	ext.RowSample.Indexes()

	_, _, body := fetch(t, ts.URL+"/metrics")
	for _, want := range []string{
		`foresight_profile_build_seconds_count{phase="build"}`,
		`foresight_profile_build_seconds_count{phase="build.sketch"}`,
		`foresight_profile_build_seconds_count{phase="build.project"}`,
		`foresight_profile_build_seconds_count{phase="build.rowsample"}`,
		`foresight_profile_build_seconds_count{phase="extend.delta"}`,
		`foresight_profile_build_seconds_count{phase="merge"}`,
		`foresight_profile_build_seconds_count{phase="sample.build"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// One histogram per phase, not per entry point.
	for _, gone := range []string{`phase="build.merge"`, `phase="build.sharded"`, `phase="extend.sharded"`} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics still split by entry point: %s", gone)
		}
	}
}

// TestLoadPhaseMetric: Run's dataset load is a phase of the same
// histogram, reported before any profile exists, so /metrics
// decomposes startup into load + build.*.
func TestLoadPhaseMetric(t *testing.T) {
	reg := obs.NewRegistry()
	fl := &Flags{data: "oecd", seed: 42}
	f, err := fl.load(reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Preprocess(f, "", fl.seed, fl.workers); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`foresight_profile_build_seconds_count{phase="load"} 1`,
		`foresight_profile_build_seconds_count{phase="build"} 1`,
		`foresight_profile_build_seconds_count{phase="build.spearman"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if _, err := (&Flags{data: "/no/such.csv"}).load(obs.NewRegistry()); err == nil {
		t.Error("loading a missing file should fail")
	}
}
