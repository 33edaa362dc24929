// OECD walkthrough: a scripted replay of the paper's §4.1 usage
// scenario on the synthetic OECD well-being dataset (35 countries ×
// 25 indicators). Each step mirrors one sentence of the narrative and
// prints what the analyst would see.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"foresight"
)

func main() {
	// "The analyst loads the OECD dataset in Foresight..."
	f := foresight.OECDDataset(0, 42)
	fmt.Println("loaded:", f.Summary())
	engine, err := foresight.NewEngine(f, foresight.NewRegistry(), nil)
	if err != nil {
		log.Fatal(err)
	}
	session := foresight.NewSession(engine, 5, false)

	// "...and eyeballs various insights displayed in the carousels."
	carousels, err := session.RecommendationsKContext(context.Background(), session.K)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- step 1: initial carousels (top insight per class) --")
	for _, c := range carousels {
		if len(c.Insights) > 0 {
			in := c.Insights[0]
			fmt.Printf("  %-14s %-50s %.3f\n", c.Class, strings.Join(in.Attrs, ", "), in.Score)
		}
	}

	// "She notes instantly that Working Long Hours and Time Devoted To
	// Leisure have a strong negative correlation, one of the top-ranked
	// correlation insights."
	var focus foresight.Insight
	for _, c := range carousels {
		if c.Class != "linear" {
			continue
		}
		for _, in := range c.Insights {
			if has(in, "WorkingLongHours") && has(in, "TimeDevotedToLeisure") {
				focus = in
			}
		}
	}
	if focus.Class == "" {
		log.Fatal("scenario broke: WLH↔TDTL not recommended")
	}
	fmt.Printf("\n-- step 2: discovery — %s (rho=%+.3f) --\n",
		strings.Join(focus.Attrs, " ↔ "), focus.Raw)

	// "Encouraged by this quick discovery, she brings this insight into
	// focus by clicking on it. Foresight updates its recommendations..."
	session.FocusOn(focus)
	updated, err := session.RecommendationsKContext(context.Background(), session.K)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- step 3: focused; correlation carousel re-ranked around the focus --")
	for _, c := range updated {
		if c.Class != "linear" {
			continue
		}
		for i, in := range c.Insights {
			fmt.Printf("  %d. %-50s %+.3f\n", i+1, strings.Join(in.Attrs, " ↔ "), in.Raw)
		}
	}

	// "...explores the newly recommended correlations through multiple
	// ranking metrics such as Pearson and Spearman, and is surprised to
	// learn that Time Devoted To Leisure has no correlation with Self
	// Reported Health."
	pearson := pairScore(engine, "linear", "pearson", "TimeDevotedToLeisure", "SelfReportedHealth")
	spearman := pairScore(engine, "monotonic", "spearman", "TimeDevotedToLeisure", "SelfReportedHealth")
	fmt.Printf("\n-- step 4: TDTL vs SelfReportedHealth: pearson=%+.3f spearman=%+.3f (≈ no correlation) --\n",
		pearson, spearman)

	// "The univariate distributional insight classes show that TDTL is
	// Normal while SRH is left-skewed."
	reg := engine.Registry()
	skewClass, _ := reg.Lookup("skew")
	tdtl, _ := skewClass.Score(f, []string{"TimeDevotedToLeisure"}, "")
	srh, _ := skewClass.Score(f, []string{"SelfReportedHealth"}, "")
	fmt.Printf("\n-- step 5: distributions — TDTL skew=%+.3f (≈normal), SRH skew=%+.3f (left-skewed) --\n",
		tdtl.Raw, srh.Raw)
	panel, err := foresight.RenderASCII(f, srh)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(panel)

	// "She clicks on the distribution of SRH, adding it as a focal
	// insight. Foresight recommends a new set of correlated attributes
	// and she finds that Life Satisfaction and SRH are highly
	// correlated."
	session.FocusOn(srh)
	again, err := session.RecommendationsKContext(context.Background(), session.K)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- step 6: after focusing SRH, correlation recommendations include --")
	for _, c := range again {
		if c.Class != "linear" {
			continue
		}
		for i, in := range c.Insights {
			marker := ""
			if has(in, "LifeSatisfaction") && has(in, "SelfReportedHealth") {
				marker = "   ← the scenario's final discovery"
			}
			fmt.Printf("  %d. %-50s %+.3f%s\n", i+1, strings.Join(in.Attrs, " ↔ "), in.Raw, marker)
		}
	}

	// "...our analyst saves the current Foresight state to revisit
	// later and to share with her colleagues."
	path := "oecd_session.json"
	file, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Save(file); err != nil {
		log.Fatal(err)
	}
	file.Close()
	fmt.Printf("\n-- step 7: session saved to %s (focus: %d insights) --\n", path, len(session.Focus))
}

func has(in foresight.Insight, attr string) bool {
	for _, a := range in.Attrs {
		if a == attr {
			return true
		}
	}
	return false
}

// pairScore runs a fixed-pair query and returns the signed metric (0
// when the pair was filtered as undefined).
func pairScore(engine *foresight.Engine, class, metric string, a, b string) float64 {
	res, err := engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{class}, Metric: metric, Fixed: []string{a, b}})
	if err != nil || len(res) == 0 || len(res[0].Insights) == 0 {
		return 0
	}
	return res[0].Insights[0].Raw
}
