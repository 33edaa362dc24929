package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/viz"
)

// RunE1Carousels regenerates Figure 1: the top-5 ranked insights of
// every class on the OECD-like dataset, one carousel per class. SVGs
// of the top insight per class land in outDir.
func RunE1Carousels(w io.Writer, outDir string, seed int64) error {
	const k = 5
	f := datagen.OECD(0, seed)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		return err
	}
	carousels, err := engine.CarouselsContext(context.Background(), k, false)
	if err != nil {
		return err
	}
	t := NewTable(fmt.Sprintf("E1 / Figure 1: top-%d insights per class (OECD, %d rows × %d cols)", k, f.Rows(), f.Cols()),
		"class", "rank", "attributes", "metric", "score")
	for _, r := range carousels {
		for i, in := range r.Insights {
			t.AddRow(r.Class, i+1, strings.Join(in.Attrs, ", "), in.Metric, in.Score)
		}
	}
	t.Print(w)
	if err := t.WriteTSV(outDir, "e1_carousels"); err != nil {
		return err
	}
	for _, r := range carousels {
		if len(r.Insights) == 0 {
			continue
		}
		svg, err := viz.RenderSVG(f, r.Insights[0])
		if err != nil {
			continue // some kinds may be unrenderable on this data
		}
		if err := writeFile(outDir, "e1_top_"+r.Class+".svg", svg); err != nil {
			return err
		}
	}
	return nil
}

// RunE2Overview regenerates Figure 2: the pairwise-correlation
// overview heat map of the OECD-like dataset.
func RunE2Overview(w io.Writer, outDir string, seed int64) error {
	f := datagen.OECD(0, seed)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	ov, err := engine.OverviewContext(ctx, "linear", "", false)
	if err != nil {
		return err
	}
	top, err := engine.ExecuteContext(ctx, query.Query{Classes: []string{"linear"}, Metric: ov.Metric, K: 10})
	if err != nil {
		return err
	}
	t := NewTable("E2 / Figure 2: pairwise correlation overview (strongest 10 pairs)",
		"x", "y", "pearson")
	for _, r := range top {
		for _, in := range r.Insights {
			t.AddRow(in.Attrs[0], in.Attrs[1], in.Raw)
		}
	}
	t.Print(w)
	fmt.Fprintf(w, "full matrix: %d×%d attributes, %d pairs scored\n",
		len(ov.RowAttrs), len(ov.ColAttrs), ov.DefinedTuples())
	if err := t.WriteTSV(outDir, "e2_top_pairs"); err != nil {
		return err
	}
	// Full matrix TSV.
	mt := NewTable("matrix", append([]string{"attr"}, ov.ColAttrs...)...)
	for i, name := range ov.RowAttrs {
		cells := make([]interface{}, 0, len(ov.ColAttrs)+1)
		cells = append(cells, name)
		for j := range ov.ColAttrs {
			cells = append(cells, ov.Values[i][j])
		}
		mt.AddRow(cells...)
	}
	if err := mt.WriteTSV(outDir, "e2_matrix"); err != nil {
		return err
	}
	svg := viz.CorrelogramSVG(ov.RowAttrs, ov.Values, "OECD pairwise correlations (Figure 2)")
	if err := writeFile(outDir, "e2_correlogram.svg", svg); err != nil {
		return err
	}
	// Terminal rendition.
	fmt.Fprintln(w)
	fmt.Fprint(w, viz.ASCIICorrelogram(ov.RowAttrs, ov.Values))
	return nil
}

// ScenarioCheck is one assertion of the §4.1 usage scenario.
type ScenarioCheck struct {
	Name, Detail string
	Pass         bool
}

// RunE7Scenario replays the §4.1 OECD usage scenario as a scripted
// sequence of engine interactions, checking each narrated discovery.
func RunE7Scenario(w io.Writer, outDir string, seed int64) ([]ScenarioCheck, error) {
	f := datagen.OECD(0, seed)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		return nil, err
	}
	var checks []ScenarioCheck
	add := func(name, detail string, pass bool) {
		checks = append(checks, ScenarioCheck{name, detail, pass})
	}

	// 1. "Working Long Hours and Time Devoted To Leisure have a strong
	//    negative correlation, one of the top-ranked correlation
	//    insights."
	res, err := engine.ExecuteContext(context.Background(), query.Query{Classes: []string{"linear"}, K: 5})
	if err != nil {
		return nil, err
	}
	var wlhTdl *core.Insight
	rank := -1
	for i, in := range res[0].Insights {
		if slices.Contains(in.Attrs, "WorkingLongHours") && slices.Contains(in.Attrs, "TimeDevotedToLeisure") {
			cp := in
			wlhTdl = &cp
			rank = i + 1
		}
	}
	add("WLH↔TDTL in top-5 correlations",
		fmt.Sprintf("rank=%d", rank), wlhTdl != nil)
	if wlhTdl != nil {
		add("WLH↔TDTL strongly negative",
			fmt.Sprintf("rho=%.3f", wlhTdl.Raw), wlhTdl.Raw < -0.5)
	} else {
		add("WLH↔TDTL strongly negative", "pair not found", false)
	}

	// 2. Focus it; explore via Pearson and Spearman ("multiple ranking
	//    metrics"): both agree on the sign and strength.
	session := query.NewSession(engine, 5, false)
	if wlhTdl != nil {
		session.FocusOn(*wlhTdl)
	}
	mono, err := engine.ExecuteContext(context.Background(), query.Query{Classes: []string{"monotonic"},
		Fixed: []string{"WorkingLongHours", "TimeDevotedToLeisure"}, Metric: "spearman"})
	if err != nil {
		return nil, err
	}
	spearOK := len(mono) == 1 && len(mono[0].Insights) == 1 && mono[0].Insights[0].Raw < -0.5
	detail := "no result"
	if spearOK {
		detail = fmt.Sprintf("spearman=%.3f", mono[0].Insights[0].Raw)
	}
	add("Spearman agrees (strong negative)", detail, spearOK)

	// 3. "Time Devoted To Leisure has no correlation with Self
	//    Reported Health."
	lin, err := engine.ExecuteContext(context.Background(), query.Query{Classes: []string{"linear"},
		Fixed: []string{"TimeDevotedToLeisure", "SelfReportedHealth"}})
	if err != nil {
		return nil, err
	}
	noCorr := len(lin) == 0 // dropped if NaN
	rhoTS := math.NaN()
	if len(lin) == 1 && len(lin[0].Insights) == 1 {
		rhoTS = lin[0].Insights[0].Score
		noCorr = rhoTS < 0.35
	}
	add("TDTL↔SRH uncorrelated", fmt.Sprintf("|rho|=%.3f", rhoTS), noCorr)

	// 4. "TDTL has a Normal distribution while SRH has a left-skewed
	//    distribution."
	skewClass, _ := engine.Registry().Lookup("skew")
	tdtlSkew, err := skewClass.Score(f, []string{"TimeDevotedToLeisure"}, "")
	if err != nil {
		return nil, err
	}
	srhSkew, err := skewClass.Score(f, []string{"SelfReportedHealth"}, "")
	if err != nil {
		return nil, err
	}
	add("TDTL approximately normal",
		fmt.Sprintf("|skew|=%.3f", tdtlSkew.Score), tdtlSkew.Score < 0.8)
	add("SRH left-skewed", fmt.Sprintf("skew=%.3f", srhSkew.Raw), srhSkew.Raw < -0.6)

	// 5. Focus SRH's distribution; "Life Satisfaction and Self
	//    Reported Health are highly correlated" among the new
	//    recommendations.
	session.FocusOn(srhSkew)
	recs, err := session.RecommendationsKContext(context.Background(), session.K)
	if err != nil {
		return nil, err
	}
	foundLsSrh := false
	var lsRho float64
	for _, r := range recs {
		if r.Class != "linear" {
			continue
		}
		for _, in := range r.Insights {
			if slices.Contains(in.Attrs, "LifeSatisfaction") && slices.Contains(in.Attrs, "SelfReportedHealth") {
				foundLsSrh = true
				lsRho = in.Raw
			}
		}
	}
	add("LS↔SRH recommended after focusing SRH",
		fmt.Sprintf("rho=%.3f", lsRho), foundLsSrh && lsRho > 0.5)

	// 6. Save the state for sharing.
	var buf strings.Builder
	saveOK := session.Save(&buf) == nil
	add("Session state saved", fmt.Sprintf("%d bytes", buf.Len()), saveOK)
	if err := writeFile(outDir, "e7_session.json", buf.String()); err != nil {
		return nil, err
	}

	t := NewTable("E7 / §4.1 usage scenario (scripted)", "check", "detail", "pass")
	failed := 0
	for _, c := range checks {
		t.AddRow(c.Name, c.Detail, c.Pass)
		if !c.Pass {
			failed++
		}
	}
	t.Print(w)
	if err := t.WriteTSV(outDir, "e7_scenario"); err != nil {
		return nil, err
	}
	if failed > 0 {
		return checks, fmt.Errorf("%d scenario checks failed", failed)
	}
	return checks, nil
}

// RunE8DemoDatasets reports the strongest insight per class on the
// Parkinson-like and IMDB-like datasets, answering the paper's §4.2
// prompts (e.g. "What factors correlate highly with a film's
// profitability?").
func RunE8DemoDatasets(w io.Writer, outDir string, seed int64) error {
	var engine *query.Engine
	for _, ds := range []struct {
		name string
		f    *frame.Frame
	}{
		{"parkinson", datagen.Parkinson(0, seed)},
		{"imdb", datagen.IMDB(0, seed+1)},
	} {
		var err error
		engine, err = query.NewEngine(ds.f, core.NewRegistry(), nil)
		if err != nil {
			return err
		}
		carousels, err := engine.CarouselsContext(context.Background(), 1, false)
		if err != nil {
			return err
		}
		t := NewTable(fmt.Sprintf("E8: strongest insight per class (%s: %s)", ds.name, ds.f.Summary()),
			"class", "attributes", "metric", "score")
		for _, r := range carousels {
			if len(r.Insights) > 0 {
				in := r.Insights[0]
				t.AddRow(r.Class, strings.Join(in.Attrs, ", "), in.Metric, in.Score)
			}
		}
		t.Print(w)
		if err := t.WriteTSV(outDir, "e8_"+ds.name); err != nil {
			return err
		}
	}
	// The IMDB profitability question, answered with a fixed-attribute
	// query (correlates of Gross) on the last engine, imdb's.
	res, err := engine.ExecuteContext(context.Background(), query.Query{Classes: []string{"monotonic"}, Fixed: []string{"Gross"}, K: 5})
	if err != nil {
		return err
	}
	t := NewTable("E8: What correlates with a film's Gross? (top-5 monotonic partners)",
		"pair", "spearman")
	if len(res) > 0 {
		for _, in := range res[0].Insights {
			t.AddRow(strings.Join(in.Attrs, " ↔ "), in.Raw)
		}
	}
	t.Print(w)
	return t.WriteTSV(outDir, "e8_imdb_gross_partners")
}
