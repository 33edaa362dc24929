// Streaming preprocessing: §3 of the paper builds on *mergeable*
// sketches — per-partition summaries that combine into a summary of
// the whole. This example preprocesses the first part of a large table
// on every core, folds the rows that arrive later in as one batch
// (Extend), persists the result, reloads it in a "new session", and
// answers insight queries without ever touching the raw data again.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"foresight"
)

func main() {
	// A 50k×28 table standing in for data that arrives in chunks: the
	// first 40k rows are there at startup, the last 10k come later.
	full := foresight.IMDBDataset(50000, 9)
	fmt.Println("dataset:", full.Summary())
	const head = 40000
	keep := make([]bool, full.Rows())
	for i := range head {
		keep[i] = true
	}
	f, err := full.FilterRows(keep) // the rows at startup
	if err != nil {
		log.Fatal(err)
	}

	// k controls estimate error (sd ≈ π·√(p(1−p)/k) per pair). Ranked
	// top-k lists amplify unlucky draws (selection effect), so use a
	// generous width when the store feeds recommendations directly.
	// Workers −1 builds on every core; the store is the same bytes at
	// any worker count.
	cfg := foresight.ProfileConfig{Seed: 1, K: 384, Workers: -1}

	// 1. Preprocess the rows at hand.
	start := time.Now()
	profile := foresight.BuildProfile(f, cfg)
	fmt.Printf("preprocessing (%d rows, every core): %v\n", head, time.Since(start).Round(time.Millisecond))

	// 2. The remaining rows arrive: Extend folds them in as one batch,
	// merging the batch's partial sketches into the store — O(batch),
	// not a rebuild.
	start = time.Now()
	if profile, err = profile.Extend(full); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extended by a %d-row batch: %v\n", full.Rows()-head, time.Since(start).Round(time.Millisecond))

	// 3. Persist the store — preprocessing happens once per dataset.
	var store bytes.Buffer
	if err := profile.Save(&store); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted sketch store: %d KB (raw data would be ≈%d KB)\n",
		store.Len()/1024, full.Rows()*full.Cols()*8/1024)

	// 4. A later session reloads the store...
	reloaded, err := foresight.LoadProfile(&store)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := foresight.NewEngine(full, foresight.NewRegistry(), reloaded)
	if err != nil {
		log.Fatal(err)
	}

	// ...and explores interactively from sketches alone.
	start = time.Now()
	res, err := engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{"linear"}, K: 5, Approx: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop correlations from the reloaded store (%v):\n", time.Since(start).Round(time.Millisecond))
	for _, in := range res[0].Insights {
		fmt.Printf("  %-40s rho=%+.3f\n", strings.Join(in.Attrs, " ↔ "), in.Raw)
	}

	start = time.Now()
	hh, err := engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{"heavyhitters"}, K: 3, Approx: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheavy-hitter attributes (%v):\n", time.Since(start).Round(time.Millisecond))
	for _, in := range hh[0].Insights {
		fmt.Printf("  %-20s RelFreq(top-3)=%.3f\n", in.Attrs[0], in.Score)
	}

	// 5. Even the pixels can come from sketches: render the top
	// correlation insight without raw-data access.
	svg, err := foresight.RenderSVGFromProfile(reloaded, res[0].Insights[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsketch-only SVG of the top insight: %d bytes\n", len(svg))
}
