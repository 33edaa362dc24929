// Streaming preprocessing: §3 of the paper builds on *mergeable*
// sketches — per-partition summaries that combine into a summary of
// the whole. This example preprocesses a large table in four row
// shards, built concurrently (as four workers each holding a chunk
// would), merges the partial sketch stores, persists the result,
// reloads it in a "new session", and answers insight queries without
// ever touching the raw data again.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"time"

	"foresight"
)

func main() {
	// A 50k×40 table standing in for data that arrives in chunks.
	f := foresight.IMDBDataset(50000, 9)
	fmt.Println("dataset:", f.Summary())

	// k controls estimate error (sd ≈ π·√(p(1−p)/k) per pair). Ranked
	// top-k lists amplify unlucky draws (selection effect), so use a
	// generous width when the store feeds recommendations directly.
	cfg := foresight.ProfileConfig{Seed: 1, K: 384}

	// 1. Sharded preprocessing: four concurrent partial sketch passes,
	// merged in a fixed tree order.
	start := time.Now()
	profile := foresight.BuildProfileSharded(f, cfg, 4)
	fmt.Printf("sharded preprocessing (4 chunks): %v\n", time.Since(start).Round(time.Millisecond))

	// 2. Persist the store — preprocessing happens once per dataset.
	var store bytes.Buffer
	if err := profile.Save(&store); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted sketch store: %d KB (raw data would be ≈%d KB)\n",
		store.Len()/1024, f.Rows()*f.Cols()*8/1024)

	// 3. A later session reloads the store...
	reloaded, err := foresight.LoadProfile(&store)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := foresight.NewEngine(f, foresight.NewRegistry(), reloaded)
	if err != nil {
		log.Fatal(err)
	}

	// ...and explores interactively from sketches alone.
	start = time.Now()
	res, err := engine.Execute(foresight.Query{Classes: []string{"linear"}, K: 5, Approx: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop correlations from the reloaded store (%v):\n", time.Since(start).Round(time.Millisecond))
	for _, in := range res[0].Insights {
		fmt.Printf("  %-40s rho=%+.3f\n", strings.Join(in.Attrs, " ↔ "), in.Raw)
	}

	start = time.Now()
	hh, err := engine.Execute(foresight.Query{Classes: []string{"heavyhitters"}, K: 3, Approx: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheavy-hitter attributes (%v):\n", time.Since(start).Round(time.Millisecond))
	for _, in := range hh[0].Insights {
		fmt.Printf("  %-20s RelFreq(top-3)=%.3f\n", in.Attrs[0], in.Score)
	}

	// 4. Even the pixels can come from sketches: render the top
	// correlation insight without raw-data access.
	svg, err := foresight.RenderSVGFromProfile(reloaded, res[0].Insights[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsketch-only SVG of the top insight: %d bytes\n", len(svg))
}
