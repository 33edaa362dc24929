package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/obs/telemetry"
	"foresight/internal/sketch"
)

// linkedRows is a seeded row stream shaped like the repository
// benchmark's explore_exact input: numeric columns n000… in blocks of
// four driven by one factor each, every other one with a second mode (so
// the dips differ), a 4-level categorical c00 whose level follows factor
// 0 (so segmentation has triples worth finding) and a 16-level c01 that
// segmentation skips, with missing cells and outliers. rows returns the
// next n rows as string cells.
type linkedRows struct {
	rng     *rand.Rand
	numeric int
}

func (g *linkedRows) names() []string {
	var out []string
	for j := 0; j < g.numeric; j++ {
		out = append(out, fmt.Sprintf("n%03d", j))
	}
	return append(out, "c00", "c01")
}

func (g *linkedRows) rows(n int) [][]string {
	out := make([][]string, n)
	factors := make([]float64, (g.numeric+3)/4)
	for r := range out {
		for f := range factors {
			factors[f] = g.rng.NormFloat64()
		}
		rec := make([]string, 0, g.numeric+2)
		for j := 0; j < g.numeric; j++ {
			v := 10*float64(j) + 0.9*factors[j/4] + 0.45*g.rng.NormFloat64()
			if j%2 == 1 && g.rng.Intn(2) == 0 {
				v += 4
			}
			switch u := g.rng.Float64(); {
			case u < 0.01:
				rec = append(rec, "")
				continue
			case u < 0.013:
				v += 12 * (1 + g.rng.Float64())
			}
			rec = append(rec, strconv.FormatFloat(v, 'g', 6, 64))
		}
		level := int(math.Min(3, math.Abs(factors[0])*4/3))
		rec = append(rec, "L"+strconv.Itoa(level), "K"+strconv.Itoa(g.rng.Intn(16)))
		out[r] = rec
	}
	return out
}

// linkedEngines returns two engines over the same frame of base rows
// from the stream seeded by seed, with the sketch store foresightd
// builds, and the stream for the batches that follow.
func linkedEngines(t *testing.T, base, numeric int, seed int64) (a, b *Engine, g *linkedRows) {
	t.Helper()
	g = &linkedRows{rng: rand.New(rand.NewSource(seed)), numeric: numeric}
	var csv strings.Builder
	csv.WriteString(strings.Join(g.names(), ",") + "\n")
	for _, rec := range g.rows(base) {
		csv.WriteString(strings.Join(rec, ",") + "\n")
	}
	f, err := frame.ReadCSV(strings.NewReader(csv.String()), "linked", nil)
	if err != nil {
		t.Fatal(err)
	}
	engine := func() *Engine {
		e, err := NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true}))
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(2)
		return e
	}
	return engine(), engine(), g
}

// replies runs the request list of one exploration step against e and
// returns every reply body. firstNeighborhood puts a neighborhood before
// any carousel, so the walk by Jaccard level meets a generation without
// views.
func replies(t *testing.T, e *Engine, firstNeighborhood bool) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	focus, err := core.NewLinearClass().Score(e.Frame(), []string{"n000", "n001"}, "")
	if err != nil {
		t.Fatal(err)
	}
	seg, err := core.NewSegmentationClass(0, 0).Score(e.Frame(), []string{"n000", "n002", "c00"}, "")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(e, 5, false)
	if firstNeighborhood {
		add(e.NeighborhoodContext(context.Background(), focus, nil, 10, false))
	}
	for _, k := range []int{5, 1, 10} {
		add(s.RecommendationsKContext(context.Background(), k))
	}
	for _, k := range []int{3, 10, 40} {
		add(e.NeighborhoodContext(context.Background(), focus, nil, k, false))
		add(e.NeighborhoodContext(context.Background(), seg, nil, k, false))
	}
	add(e.NeighborhoodContext(context.Background(), focus, []string{"segmentation", "monotonic", "catassoc"}, 10, false))
	add(e.OverviewContext(context.Background(), "linear", "", false))
	add(e.ExecuteContext(context.Background(), Query{Fixed: []string{"n000"}, K: 10}))
	add(e.ExecuteContext(context.Background(), Query{Fixed: []string{"c00"}, K: 3}))
	add(e.ExecuteContext(context.Background(), Query{MinScore: 0.3, K: 4}))
	add(e.ExecuteContext(context.Background(), Query{Classes: []string{"segmentation"}, MinScore: 0.1}))
	s.FocusOn(focus)
	add(s.RecommendationsKContext(context.Background(), 5))
	s.Unfocus(focus.Key())
	add(s.RecommendationsKContext(context.Background(), 5))
	add(NewSession(e, 5, true).RecommendationsKContext(context.Background(), 5))
	return out
}

// TestCertificatesKeepReplies is the contract of the hand-down: an engine
// that carries certificates from one ingest to the next replies, body for
// body, what an engine that starts every generation from nothing
// replies, across six ingests of ten rows. Run it with -race.
func TestCertificatesKeepReplies(t *testing.T) {
	carrying, fresh, g := linkedEngines(t, 300, 16, 31)
	// Candidates each class pruned, summed over the steps: telemetry
	// counts them per generation, and a step is one generation.
	pruned := map[*Engine]map[string]uint64{carrying: {}, fresh: {}}
	telem := map[*Engine]*telemetry.Insights{}
	for e := range pruned {
		telem[e] = telemetry.New()
		e.SetInsightTelemetry(telem[e])
	}
	for step := 0; step <= 6; step++ {
		if step > 0 {
			batch := frame.RowBatch{Records: g.rows(10)}
			for _, e := range []*Engine{carrying, fresh} {
				if _, err := e.Ingest(context.Background(), batch, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := fresh.RestoreSnapshot(fresh.Frame(), nil); err != nil {
				t.Fatal(err)
			}
		}
		got, want := replies(t, carrying, step%2 == 1), replies(t, fresh, step%2 == 1)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("step %d, reply %d differs:\n got %s\nwant %s", step, i, got[i], want[i])
			}
		}
		for e, sum := range pruned {
			for _, c := range telem[e].Snapshot(e.CacheStats().Generation, 1).Classes {
				sum[c.Class] += c.Pruned
			}
		}
	}
	// The replies matched because the mechanism held, not because it
	// never ran: the carrying engine bounded misses by certificates of
	// every class that leaves them, and pruned more of each than the fresh
	// engine did.
	if st, bare := carrying.PruneStats(), fresh.PruneStats(); st.Carried == 0 || bare.Carried != 0 || st.Pruned <= bare.Pruned {
		t.Errorf("carrying engine %+v, fresh engine %+v", st, bare)
	}
	carried := map[string]bool{}
	for key := range carrying.gen.Load().carried {
		carried[key.class] = true
	}
	for _, class := range []string{"segmentation", "monotonic", "multimodality"} {
		if got, bare := pruned[carrying][class], pruned[fresh][class]; !carried[class] || got <= bare {
			t.Errorf("%s: carried %v, pruned %d by the carrying engine and %d by the fresh one", class, carried[class], got, bare)
		}
	}
}

// TestCertificatesDropOnInvalidate: only an append hands certificates
// down. A restored snapshot, and InvalidateCache, start a generation
// that carries none, whatever the frame.
func TestCertificatesDropOnInvalidate(t *testing.T) {
	e, _, g := linkedEngines(t, 600, 8, 7)
	carried := func() int { return len(e.gen.Load().carried) }
	for _, drop := range []struct {
		name string
		do   func() error
	}{
		{"InvalidateCache", func() error { e.InvalidateCache(); return nil }},
		{"RestoreSnapshot", func() error { return e.RestoreSnapshot(e.Frame(), nil) }},
	} {
		if _, err := NewSession(e, 5, false).RecommendationsKContext(context.Background(), 5); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(context.Background(), frame.RowBatch{Records: g.rows(10)}, nil); err != nil {
			t.Fatal(err)
		}
		if carried() == 0 {
			t.Fatalf("before %s: an ingest carried no certificates", drop.name)
		}
		if err := drop.do(); err != nil {
			t.Fatal(err)
		}
		if n := carried(); n != 0 {
			t.Errorf("%s carried %d certificates", drop.name, n)
		}
	}
}

// successorClass is a class whose exact scores outlive an append.
type successorClass interface {
	core.Class
	core.Bounder
	core.Successor
}

// gatedSuccessor is a successorClass whose certified scores wait for
// gate while it is set, so a pass over it is provably mid-scoring while
// the gate is shut.
type gatedSuccessor struct {
	successorClass
	gate    chan struct{}
	entered atomic.Int64
}

func (c *gatedSuccessor) ScoreCertified(f *frame.Frame, attrs []string, metric string) (core.Insight, core.Certificate, error) {
	if c.gate != nil {
		c.entered.Add(1)
		<-c.gate
	}
	return c.successorClass.ScoreCertified(f, attrs, metric)
}

// TestRetiredPassBesideSuccessor: a pass that outlives its generation
// publishes its certificates into that generation while the successor's
// carousel bounds its misses by the certificates handed down to it. The
// successor holds its own copy of them, so the two never share a map
// (run it with -race), and each reply is the oracle's on its own frame.
func TestRetiredPassBesideSuccessor(t *testing.T) {
	base, _, g := linkedEngines(t, 300, 8, 13)
	seg := &gatedSuccessor{successorClass: core.NewSegmentationClass(0, 0).(successorClass)}
	reg := core.NewEmptyRegistry()
	if err := reg.Register(seg); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(base.Frame(), reg, base.Profile())
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(2)
	ingest := func() {
		t.Helper()
		if _, err := e.Ingest(context.Background(), frame.RowBatch{Records: g.rows(10)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Generation 0 certifies every triple, and generation 1 carries them.
	if _, err := NewSession(e, 5, false).RecommendationsKContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	ingest()
	retired := e.gen.Load()

	// A whole-class read of generation 1 scores every triple; hold it at
	// the gate and land the next ingest underneath it.
	seg.gate = make(chan struct{})
	done := make(chan []Result, 1)
	go func() {
		res, err := e.ExecuteContext(context.Background(), Query{})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	waitFor(t, "the pass to reach the gate", func() bool { return seg.entered.Load() > 0 })
	ingest()
	if len(e.gen.Load().carried) == 0 {
		t.Fatal("the ingest carried no certificates")
	}

	// Release the retired pass and read the successor's carousel beside it.
	close(seg.gate)
	s := NewSession(e, 5, false)
	got, err := s.RecommendationsKContext(context.Background(), s.K)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleRecommendations(t, s, s.K); !reflect.DeepEqual(got, want) {
		t.Errorf("the successor's carousel differs from the oracle:\n got: %+v\nwant: %+v", got, want)
	}
	old, err := NewEngine(retired.frame, reg, retired.profile)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := <-done, oracleExecute(t, old, Query{}); !reflect.DeepEqual(got, want) {
		t.Error("the retired pass differs from the oracle on its own frame")
	}
	if st := e.PruneStats(); st.Carried == 0 {
		t.Errorf("no miss was bounded by a carried certificate: %+v", st)
	}
}
