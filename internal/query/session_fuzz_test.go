package query

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"foresight/internal/core"
	"foresight/internal/sketch"
)

// FuzzLoadSession feeds LoadSession — what POST /api/state decodes —
// arbitrary bytes. It must not panic, allocate more than linearly in
// the input, or accept a state it cannot save stably (Save ∘ Load ∘
// Save is Save); and a session it accepts must serve a carousel and a
// neighborhood of each of its foci without panicking, also when the
// foci's scores are NaN (a focus scored on an undefined metric; JSON
// cannot carry one). The seeds cover foci that name no column, empty
// and missing attrs, a negative and a huge k, and blends outside
// (0, 1], on both backends.
func FuzzLoadSession(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"qtest","focus":[{"class":"linear","metric":"pearson","attrs":["a","b"],"score":0.9}],"k":5,"approx":false,"blend":0.5}`,
		`{"dataset":"qtest","focus":[{"class":"linear","metric":"pearson","attrs":["a","b"],"score":0.9}],"k":3,"approx":true,"blend":1}`,
		`{"dataset":"qtest","focus":[{"class":"skew","metric":"skewness","attrs":["nope"],"score":2}],"k":-4,"blend":0}`,
		`{"dataset":"qtest","focus":[{"class":"linear","attrs":[]},{"class":"bogus","attrs":null}],"k":1e9,"blend":-3}`,
		`{"dataset":"qtest","focus":[{"attrs":["a","a","a"],"score":-1e308,"details":{"x":1}}],"k":9007199254740993,"blend":7}`,
		`{"dataset":"qtest","focus":[],"k":0}`,
		`{"dataset":"other"}`,
		`{"dataset":"qtest","focus":{}}`,
		`{`,
		``,
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	fr := testFrame(300, 24)
	e, err := NewEngine(fr, core.NewRegistry(), sketch.BuildProfile(fr, sketch.ProfileConfig{Seed: 24, K: 64}))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, state []byte, nanScores bool) {
		s, alloc, err := loadSessionAlloc(state, e)
		if limit := 1024*uint64(len(state)) + 1<<20; alloc > limit {
			t.Fatalf("loading %d bytes allocated %d, ceiling %d", len(state), alloc, limit)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := s.Save(&once); err != nil {
			t.Fatalf("an accepted session does not save: %v", err)
		}
		again, err := LoadSession(bytes.NewReader(once.Bytes()), e)
		if err != nil {
			t.Fatalf("a saved session does not load: %v\n%s", err, once.Bytes())
		}
		if err := again.Save(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("load and save is not stable (%v):\n once  %s\n twice %s", err, once.Bytes(), twice.Bytes())
		}
		if nanScores {
			for i := range s.Focus {
				s.Focus[i].Score = math.NaN()
			}
		}
		// k as the session holds it, kept small enough that a read of
		// the whole class stays cheap.
		k := min(s.K, 64)
		ctx := context.Background()
		if _, err := s.RecommendationsKContext(ctx, k); err != nil {
			t.Fatalf("carousel: %v", err)
		}
		for _, focus := range s.Focus[:min(len(s.Focus), 3)] {
			if _, err := e.NeighborhoodContext(ctx, focus, nil, k, s.Approx); err != nil {
				t.Fatalf("neighborhood of %v: %v", focus, err)
			}
		}
	})
}

// loadSessionAlloc loads a session from b and reports the heap bytes
// it allocated: the fewer of two runs, so an allocation elsewhere in
// the process during one of them does not count against the decoder.
func loadSessionAlloc(b []byte, e *Engine) (*Session, uint64, error) {
	var s *Session
	var err error
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 2 {
		runtime.ReadMemStats(&before)
		s, err = LoadSession(bytes.NewReader(b), e)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return s, least, err
}
