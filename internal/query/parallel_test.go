package query

import (
	"context"
	"testing"

	"foresight/internal/core"
	"foresight/internal/sketch"
)

func TestParallelExecuteMatchesSequential(t *testing.T) {
	f := testFrame(3000, 21)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 9, K: 128})
	seq, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	par.SetWorkers(4)
	if par.Workers() != 4 {
		t.Fatalf("Workers = %d", par.Workers())
	}
	for _, q := range []Query{
		{K: 5},
		{Classes: []string{"linear"}, K: 0},
		{Classes: []string{"linear"}, MinScore: 0.2, MaxScore: 0.9},
		{K: 3, Approx: true},
	} {
		a, err := seq.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("result count differs: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Class != b[i].Class || len(a[i].Insights) != len(b[i].Insights) {
				t.Fatalf("class %s shape differs", a[i].Class)
			}
			for j := range a[i].Insights {
				if a[i].Insights[j].Key() != b[i].Insights[j].Key() {
					t.Errorf("%s[%d]: %s vs %s", a[i].Class, j,
						a[i].Insights[j].Key(), b[i].Insights[j].Key())
				}
				if a[i].Insights[j].Score != b[i].Insights[j].Score {
					t.Errorf("%s[%d]: score %v vs %v", a[i].Class, j,
						a[i].Insights[j].Score, b[i].Insights[j].Score)
				}
			}
		}
	}
}

func TestSetWorkersBounds(t *testing.T) {
	e := newTestEngine(t, 100, 22)
	if e.Workers() != 1 {
		t.Error("default workers should be 1")
	}
	e.SetWorkers(-5)
	if e.Workers() != 1 {
		t.Error("negative workers coerced to 1")
	}
	e.SetWorkers(0)
	if e.Workers() < 1 {
		t.Error("0 selects GOMAXPROCS ≥ 1")
	}
}

func TestParallelProfileDeterministic(t *testing.T) {
	f := testFrame(4000, 23)
	a := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5, K: 64, Spearman: true})
	b := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5, K: 64, Spearman: true, Workers: 4})
	for name, pa := range a.Numeric {
		pb := b.Numeric[name]
		if pa.Moments != pb.Moments {
			t.Errorf("%s: moments differ", name)
		}
		for i := range pa.Proj.Dots {
			if pa.Proj.Dots[i] != pb.Proj.Dots[i] {
				t.Fatalf("%s: projection differs at %d", name, i)
			}
		}
		if pa.RankPlanes.Hamming(pb.RankPlanes) != 0 {
			t.Errorf("%s: rank planes differ", name)
		}
		if pa.Quantiles.Median() != pb.Quantiles.Median() {
			t.Errorf("%s: KLL differs", name)
		}
	}
	for name, ca := range a.Categorical {
		cb := b.Categorical[name]
		if ca.Heavy.RelFreqTopK(3) != cb.Heavy.RelFreqTopK(3) {
			t.Errorf("%s: heavy hitters differ", name)
		}
	}
}
