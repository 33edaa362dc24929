package query

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/obs/telemetry"
	"foresight/internal/sketch"
)

// TestInsightMetricsMatchPerScore holds the foresight_insight_* metric
// families to what recording every emitted score one by one gives: a
// class view's sample is kept (telemetry.Keep), so recording it adds a
// histogram summary computed once, and the oracle is the same run with
// keep the identity — the per-score path every sample took before.
// The script — cold, warm and focused carousels, a neighborhood, an
// overview, a fix= query, a 10-row ingest, then the reads again, with a
// telemetry snapshot between — runs on oecd and on a 64-column frame,
// exact and from the sketches, and the two runs' families must agree
// byte for byte.
func TestInsightMetricsMatchPerScore(t *testing.T) {
	for _, f := range []*frame.Frame{
		datagen.OECD(0, 42),
		datagen.Scalable(datagen.ScalableConfig{Rows: 400, NumericCols: 64, CatCols: 2, Seed: 7}),
	} {
		for _, approx := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/approx=%v", f.Name(), approx), func(t *testing.T) {
				kept := 0
				keep = func(s telemetry.ClassSample) telemetry.ClassSample { kept++; return telemetry.Keep(s) }
				defer func() { keep = telemetry.Keep }()
				got := insightFamilies(t, f, approx)
				if kept == 0 {
					t.Fatal("the script built no class view")
				}
				keep = func(s telemetry.ClassSample) telemetry.ClassSample { return s }
				want := insightFamilies(t, f, approx)
				if !strings.Contains(want, "foresight_insight_score_bucket") {
					t.Fatalf("no score histogram in\n%s", want)
				}
				if got != want {
					t.Errorf("kept samples give\n%s\nthe per-score path gives\n%s", got, want)
				}
			})
		}
	}
}

// insightFamilies runs the script on a fresh engine over f and returns
// the foresight_insight_* lines of the registry's exposition.
func insightFamilies(t *testing.T, f *frame.Frame, approx bool) string {
	t.Helper()
	e, err := NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, K: 64, Spearman: true}))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ins := telemetry.New(telemetry.Config{})
	ins.Instrument(reg)
	e.SetInsightTelemetry(ins)
	ctx := context.Background()
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	reads := func() {
		plain := NewSession(e, 5, approx)
		must(plain.RecommendationsKContext(ctx, 5))
		must(plain.RecommendationsKContext(ctx, 5))
		top, err := e.ExecuteContext(ctx, Query{Classes: []string{"linear"}, K: 3, Approx: approx})
		if err != nil || len(top) == 0 {
			t.Fatalf("linear top 3: %v", err)
		}
		focus := top[0].Insights[len(top[0].Insights)-1]
		focused := NewSession(e, 5, approx)
		focused.FocusOn(focus)
		must(focused.RecommendationsKContext(ctx, 5))
		must(e.NeighborhoodContext(ctx, focus, nil, 10, approx))
		must(e.OverviewContext(ctx, "linear", "", approx))
		must(e.ExecuteContext(ctx, Query{Fixed: focus.Attrs[:1], K: 10, Approx: approx}))
	}
	reads()
	ins.Snapshot(e.CacheStats().Generation, 5)
	batch := frame.RowBatch{Records: make([][]string, 10)}
	for r := range batch.Records {
		rec := make([]string, f.Cols())
		for c := range rec {
			rec[c] = f.Column(c).StringAt(r)
		}
		batch.Records[r] = rec
	}
	must(e.Ingest(ctx, batch, nil))
	reads()
	ins.Snapshot(e.CacheStats().Generation, 5)

	var buf, out bytes.Buffer
	reg.WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if strings.HasPrefix(name, "foresight_insight_") {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}
