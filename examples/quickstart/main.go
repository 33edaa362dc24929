// Quickstart: load a small CSV, let Foresight recommend insights, and
// render the strongest one. This is the minimal end-to-end use of the
// public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"foresight"
)

const salesCSV = `region,channel,revenue,cost,units,satisfaction
north,online,120,80,301,4.1
north,retail,95,70,240,3.9
south,online,230,120,520,4.4
south,retail,150,100,350,4.0
east,online,310,160,690,4.6
east,retail,180,110,410,4.1
west,online,90,60,220,3.8
west,retail,60,45,150,3.6
north,online,140,88,330,4.2
south,online,260,130,560,4.5
east,online,330,170,720,4.7
west,retail,70,50,170,3.7
north,retail,100,74,255,3.9
south,retail,160,105,365,4.1
east,retail,195,118,440,4.2
west,online,105,66,245,3.9
`

func main() {
	// 1. Load data. ReadCSV infers numeric vs categorical columns.
	f, err := foresight.ReadCSV(strings.NewReader(salesCSV), "sales", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded:", f.Summary())

	// 2. Build an engine with the twelve built-in insight classes.
	engine, err := foresight.NewEngine(f, foresight.NewRegistry(), nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Ask for the top-3 insights of every class (the Figure-1 view).
	carousels, err := engine.CarouselsContext(context.Background(), 3, false)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range carousels {
		fmt.Printf("\n%s (ranked by %s):\n", c.Class, c.Metric)
		for i, in := range c.Insights {
			fmt.Printf("  %d. %-28s score=%.3f\n", i+1, strings.Join(in.Attrs, ", "), in.Score)
		}
	}

	// 4. Run a targeted insight query: what correlates with revenue?
	res, err := engine.ExecuteContext(context.Background(), foresight.Query{
		Classes: []string{"linear"},
		Fixed:   []string{"revenue"},
		K:       3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstrongest linear partners of revenue:")
	for _, in := range res[0].Insights {
		fmt.Printf("  %-28s rho=%+.3f\n", strings.Join(in.Attrs, ", "), in.Raw)
	}

	// 5. Render the top revenue insight as ASCII (SVG also available).
	panel, err := foresight.RenderASCII(f, res[0].Insights[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n" + panel)
}
