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
	carried := handedCerts(carrying.gen.Load())
	for _, class := range []string{"segmentation", "monotonic", "multimodality"} {
		if got, bare := pruned[carrying][class], pruned[fresh][class]; carried[class] == 0 || got <= bare {
			t.Errorf("%s: carried %v, pruned %d by the carrying engine and %d by the fresh one", class, carried[class] > 0, got, bare)
		}
	}
}

// TestCertificatesPruneWithoutProfile: certificates need no sketch
// store, so an engine built without one prunes on those its ingests hand
// down. Its exact top-k answers of the three classes that leave them
// are the oracle's on every generation, and each class pruned some of
// its candidates by a carried bound.
func TestCertificatesPruneWithoutProfile(t *testing.T) {
	base, _, g := linkedEngines(t, 300, 12, 5)
	e, err := NewEngine(base.Frame(), core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(2)
	pruned := map[string]uint64{}
	for step := 0; step <= 4; step++ {
		if step > 0 {
			if _, err := e.Ingest(context.Background(), frame.RowBatch{Records: g.rows(10)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, class := range []string{"segmentation", "monotonic", "multimodality"} {
			q := Query{Classes: []string{class}, K: 5}
			before := e.PruneStats().Pruned
			got, err := e.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleExecute(t, e, q); !reflect.DeepEqual(got, want) {
				t.Errorf("step %d, %s: pruned results differ from the oracle:\n got: %+v\nwant: %+v", step, class, got, want)
			}
			pruned[class] += e.PruneStats().Pruned - before
		}
	}
	for class, n := range pruned {
		if n == 0 {
			t.Errorf("%s: no candidate pruned", class)
		}
	}
	if st := e.PruneStats(); st.Pruned == 0 || st.Carried == 0 {
		t.Errorf("profile-less engine did not prune on certificates: %+v", st)
	}
}

// handedCerts counts, by class, the certificates handed down to g: those
// its columns carry, and those of the columns it has yet to read.
func handedCerts(g *generation) map[string]int {
	n := map[string]int{}
	count := func(class string, certs []core.Certificate) {
		for _, cert := range certs {
			if cert != nil {
				n[class]++
			}
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, col := range g.cols {
		count(k.class, col.carried)
	}
	for k, col := range g.handed {
		count(k.class, col.certificates())
	}
	return n
}

// TestCertificatesDropOnInvalidate: only an append hands certificates
// down. A restored snapshot, and InvalidateCache, start a generation
// that carries none, whatever the frame.
func TestCertificatesDropOnInvalidate(t *testing.T) {
	e, _, g := linkedEngines(t, 600, 8, 7)
	carried := func() (n int) {
		for _, c := range handedCerts(e.gen.Load()) {
			n += c
		}
		return n
	}
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
	if len(handedCerts(e.gen.Load())) == 0 {
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

// TestSlotsAcrossGenerations: ingests change the candidate tables — a
// one-level categorical taking its second level inserts tuples in the
// middle of the dependence, catassoc and segmentation tables, and a
// categorical turning identifier-like takes its tuples out — and an
// engine that hands its tables and certificates down still replies,
// body for body, what one that starts every generation afresh replies:
// exact and approximate carousels, fixed queries, neighborhoods and
// Engine.Score. Run it with -race.
func TestSlotsAcrossGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	// batch returns n rows: six numeric columns spread alike, and a
	// 4-level c00 whose level k moves n000 and n001 by 4k and the rest by
	// 4 times a level of their own, so its segmentation triples range
	// from strong (n000, n001) through one strong axis to none (two of
	// n002…n005), and a certificate on the wrong triple would give a
	// tight bound of the wrong score; u1 and u2, "x"
	// until their second level opens; and tag, which holds tags[i] in row
	// i and is missing past them.
	batch := func(n int, u1, u2 bool, tags []string) [][]string {
		rows := make([][]string, n)
		for i := range rows {
			k := rng.Intn(4)
			for j := 0; j < 6; j++ {
				v := rng.NormFloat64() + 4*float64(k)
				if j >= 2 {
					v += 4 * float64(rng.Intn(4)-k)
				}
				rows[i] = append(rows[i], strconv.FormatFloat(v, 'g', 6, 64))
			}
			a, b, tag := "x", "x", ""
			if u1 && rng.Intn(2) == 0 {
				a = "y"
			}
			if u2 && rng.Intn(2) == 0 {
				b = "y"
			}
			if i < len(tags) {
				tag = tags[i]
			}
			rows[i] = append(rows[i], "K"+strconv.Itoa(k), a, b, tag)
		}
		return rows
	}
	// Twelve tags twice each: segmentation's cardinality cap, and half
	// the 24 cells that hold one, so not identifier-like.
	var tags []string
	for i := 0; i < 24; i++ {
		tags = append(tags, fmt.Sprintf("T%d", i/2))
	}
	var csv strings.Builder
	csv.WriteString("n000,n001,n002,n003,n004,n005,c00,u1,u2,tag\n")
	for _, rec := range batch(300, false, false, tags) {
		csv.WriteString(strings.Join(rec, ",") + "\n")
	}
	f, err := frame.ReadCSV(strings.NewReader(csv.String()), "slots", nil)
	if err != nil {
		t.Fatal(err)
	}
	var engines [2]*Engine
	for i := range engines {
		if engines[i], err = NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true})); err != nil {
			t.Fatal(err)
		}
		engines[i].SetWorkers(2)
	}
	carrying, fresh := engines[0], engines[1]
	scores := func(e *Engine) [][]byte {
		var out [][]byte
		for _, tuple := range [][]string{
			{"n000", "n002", "c00"}, {"n001", "n003", "c00"}, {"n000", "n001", "u1"}, {"n002", "n003", "u2"}, {"n004", "tag"}, {"n001", "n000"},
		} {
			c, _ := e.Registry().Lookup(map[int]string{2: "dependence", 3: "segmentation"}[len(tuple)])
			if tuple[0] == "n001" && tuple[1] == "n000" {
				c, _ = e.Registry().Lookup("linear")
			}
			in, err := e.Score(c, tuple, "")
			body, _ := json.Marshal(in)
			out = append(out, append(body, fmt.Sprint(err)...))
		}
		return out
	}
	strong := func(e *Engine) []byte {
		res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"segmentation"}, MinScore: 0.17})
		body, _ := json.Marshal(res)
		return append(body, fmt.Sprint(err)...)
	}
	// An eleventh tag and five more make tag identifier-like: 18 tags
	// over 34 cells.
	idLike := []string{"T0", "T1", "T2", "T3", "T12", "T13", "T14", "T15", "T16", "T17"}
	steps := []struct {
		u1, u2 bool
		tags   []string
	}{{}, {}, {u1: true}, {u1: true}, {u1: true, tags: idLike}, {u1: true, u2: true}, {u1: true, u2: true}}
	changed := map[int]bool{}
	for step, s := range steps {
		if step > 0 {
			b := frame.RowBatch{Records: batch(10, s.u1, s.u2, s.tags)}
			for _, e := range engines {
				if _, err := e.Ingest(context.Background(), b, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := fresh.RestoreSnapshot(fresh.Frame(), nil); err != nil {
				t.Fatal(err)
			}
		}
		var got, want [][]byte
		if step%2 == 0 {
			got, want = scores(carrying), scores(fresh)
		}
		// The strong triple and the one-axis ones (≈ 0.18): a certificate
		// of a two-noise triple on one of them would prune it.
		got, want = append(got, strong(carrying)), append(want, strong(fresh))
		got, want = append(got, replies(t, carrying, step%2 == 1)...), append(want, replies(t, fresh, step%2 == 1)...)
		got, want = append(got, scores(carrying)...), append(want, scores(fresh)...)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("step %d, reply %d differs:\n got %s\nwant %s", step, i, got[i], want[i])
			}
		}
		gen := carrying.gen.Load()
		if step > 0 && gen.tables["segmentation"] != gen.prior["segmentation"] {
			changed[step] = true
		}
		// Every certificate a column carries bounds its own tuple.
		seg, _ := carrying.Registry().Lookup("segmentation")
		col := gen.column(seg, "silhouette", false)
		for p, attrs := range col.t.tuples {
			if p >= len(col.carried) || col.carried[p] == nil {
				continue
			}
			in, err := seg.Score(gen.frame, attrs, "silhouette")
			if b := seg.(core.Successor).SuccessorBound(col.carried[p], gen.frame, attrs, "silhouette"); err == nil && b < in.Score {
				t.Errorf("step %d: %v scores %v, above the bound %v its carried certificate gives", step, attrs, in.Score, b)
			}
		}
	}
	// The replies matched across changed tables, and across kept ones
	// whose certificates bounded misses.
	if want := map[int]bool{2: true, 4: true, 5: true}; !reflect.DeepEqual(changed, want) {
		t.Errorf("segmentation's table changed at steps %v, want %v", changed, want)
	}
	if st := carrying.PruneStats(); st.Carried == 0 {
		t.Errorf("no miss was bounded by a carried certificate: %+v", st)
	}
}
