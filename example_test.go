package foresight_test

import (
	"context"
	"fmt"
	"strings"

	"foresight"
)

// Example shows the minimal flow: load a CSV, ask for the strongest
// correlation insight, and inspect it.
func Example() {
	csv := "x,y,z\n1,2,9\n2,4,1\n3,6,5\n4,8,2\n5,10,7\n"
	f, err := foresight.ReadCSV(strings.NewReader(csv), "demo", nil)
	if err != nil {
		panic(err)
	}
	engine, err := foresight.NewEngine(f, nil, nil)
	if err != nil {
		panic(err)
	}
	res, err := engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{"linear"}, K: 1})
	if err != nil {
		panic(err)
	}
	top := res[0].Insights[0]
	fmt.Printf("%s %s rho=%.2f\n", top.Attrs[0], top.Attrs[1], top.Raw)
	// Output: x y rho=1.00
}

// ExampleQuery demonstrates the paper's §2.1 constrained insight
// query: fix one attribute and band-limit the strength metric.
func ExampleQuery() {
	csv := "a,b,c\n1,1.1,5\n2,1.9,1\n3,3.2,4\n4,3.8,2\n5,5.1,3\n6,6.2,0\n"
	f, _ := foresight.ReadCSV(strings.NewReader(csv), "demo", nil)
	engine, _ := foresight.NewEngine(f, nil, nil)
	res, _ := engine.ExecuteContext(context.Background(), foresight.Query{
		Classes:  []string{"linear"},
		Fixed:    []string{"a"},
		MinScore: 0.9,
		K:        5,
	})
	for _, r := range res {
		for _, in := range r.Insights {
			fmt.Println(strings.Join(in.Attrs, "~"))
		}
	}
	// Output: a~b
}

// ExampleSession shows focus-driven recommendation updates (§4.1).
func ExampleSession() {
	f := foresight.OECDDataset(0, 42)
	engine, _ := foresight.NewEngine(f, nil, nil)
	session := foresight.NewSession(engine, 3, false)
	// Focus the skewness insight of SelfReportedHealth.
	reg := engine.Registry()
	skew, _ := reg.Lookup("skew")
	in, _ := skew.Score(f, []string{"SelfReportedHealth"}, "")
	session.FocusOn(in)
	recs, _ := session.RecommendationsKContext(context.Background(), session.K)
	for _, r := range recs {
		if r.Class == "linear" {
			top := r.Insights[0]
			fmt.Println(strings.Join(top.Attrs, " ~ "))
		}
	}
	// Output: LifeSatisfaction ~ SelfReportedHealth
}

// ExampleRegistry_Register plugs a custom insight class into the
// registry (§2.2 extensibility).
func ExampleRegistry_Register() {
	reg := foresight.NewRegistry()
	err := reg.Register(foresight.NewNonlinearDependenceClass(0))
	fmt.Println(err == nil, len(reg.Names()))
	// Output: true 13
}
