// IMDB exploration: the paper's §4.2 movie questions — "What factors
// correlate highly with a film's profitability? How are critical
// responses and commercial success interrelated?" — answered with
// insight queries over the synthetic 5000×28 movie dataset, using the
// sketch-backed approximate path to show interactive exploration.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"foresight"
)

func main() {
	f := foresight.IMDBDataset(0, 7)
	fmt.Println("loaded:", f.Summary())

	// Preprocess sketches once; all queries below run from the store.
	start := time.Now()
	profile := foresight.BuildProfile(f, foresight.ProfileConfig{Seed: 1, Spearman: true})
	fmt.Printf("sketch preprocessing: %v\n", time.Since(start).Round(time.Millisecond))
	engine, err := foresight.NewEngine(f, foresight.NewRegistry(), profile)
	if err != nil {
		log.Fatal(err)
	}

	// Q1: what moves with profitability? Gross and BudgetRecovery are
	// the two revenue-side columns; monotone (Spearman) relationships
	// are the right lens for heavy-tailed money data.
	fmt.Println("\nQ1. What factors correlate with profitability?")
	for _, target := range []string{"Gross", "BudgetRecovery"} {
		res, err := engine.ExecuteContext(context.Background(), foresight.Query{
			Classes: []string{"monotonic"}, Fixed: []string{target}, K: 5, Approx: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  top monotone partners of %s:\n", target)
		for _, in := range res[0].Insights {
			fmt.Printf("    %-44s rho_s=%+.3f\n", strings.Join(in.Attrs, " ↔ "), in.Raw)
		}
	}

	// Q2: critics vs commerce. Fix IMDBScore and NumCriticReviews and
	// look at their linear partners among the commercial metrics.
	fmt.Println("\nQ2. How are critical response and commercial success interrelated?")
	for _, target := range []string{"IMDBScore", "NumCriticReviews"} {
		res, err := engine.ExecuteContext(context.Background(), foresight.Query{
			Classes: []string{"linear"}, Fixed: []string{target}, K: 4, Approx: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  linear partners of %s:\n", target)
		for _, in := range res[0].Insights {
			fmt.Printf("    %-44s rho=%+.3f\n", strings.Join(in.Attrs, " ↔ "), in.Raw)
		}
	}

	// Q3: which attributes are dominated by a few heavy hitters?
	// (Directors and languages are; genres less so.)
	fmt.Println("\nQ3. Heavy-hitter structure of the categorical attributes:")
	res, err := engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{"heavyhitters"}, Approx: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range res[0].Insights {
		fmt.Printf("    %-16s RelFreq(top-3)=%.3f\n", in.Attrs[0], in.Score)
	}

	// Q4: money columns are heavy-tailed — confirm via the heavy-tails
	// carousel, filtered to currency-tagged attributes (metadata
	// constraint from the paper's future-work list).
	fmt.Println("\nQ4. Heavy tails among currency attributes (metadata-filtered query):")
	res, err = engine.ExecuteContext(context.Background(), foresight.Query{
		Classes: []string{"heavytails"}, Semantic: "currency", K: 5, Approx: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range res[0].Insights {
		fmt.Printf("    %-16s kurtosis=%.1f\n", in.Attrs[0], in.Score)
	}

	// A range-filtered query, as in §2.1: moderately correlated pairs
	// only (filter out the trivially high ones).
	fmt.Println("\nQ5. Moderately correlated pairs (0.4 ≤ |rho| ≤ 0.7):")
	res, err = engine.ExecuteContext(context.Background(), foresight.Query{
		Classes: []string{"linear"}, MinScore: 0.4, MaxScore: 0.7, K: 5, Approx: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(res) > 0 {
		for _, in := range res[0].Insights {
			fmt.Printf("    %-44s rho=%+.3f\n", strings.Join(in.Attrs, " ↔ "), in.Raw)
		}
	}
}
