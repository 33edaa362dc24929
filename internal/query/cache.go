package query

import (
	"maps"
	"slices"
	"strings"
	"sync"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// This file implements the engine's generations: one (frame, profile)
// pair and what has been computed from it. Every carousel, overview,
// neighborhood and focus re-ranks the same candidate tuples (paper §3),
// so a class's candidates are a table, built once, and a candidate is
// its position in it. A score depends only on (class, metric, tuple,
// backend) on a fixed frame and profile, so a generation keeps a column
// of slots per (class, metric, backend), sized to the table, which the
// scoring pass (score.go) fills. The engine holds the live generation
// behind one atomic pointer; a request loads it once and works on what
// it loaded, so a pass that outlives its generation fills columns no
// new reader sees.
//
// A slot is empty, in flight or done. A pass claims empty slots under
// the generation's mutex, marking them with its done channel, scores
// them outside the lock and publishes each as it finishes; once its
// pool has stopped it returns the unfinished ones to empty and closes
// the channel. A pass that finds a slot in flight waits on that channel
// or its own ctx, then reads the slot again: done, or empty to claim.
// So duplicate concurrent requests score each candidate once, and the
// scores finished before a cancellation stay for the retry.

// CacheStats is a point-in-time snapshot of the engine's scoring
// cache, exposed via Engine.CacheStats and the server's /api/stats.
type CacheStats struct {
	// Hits counts candidate lookups answered from the memo.
	Hits uint64 `json:"hits"`
	// Misses counts candidate lookups that needed scoring (including
	// lookups that waited on another goroutine's in-flight scoring).
	Misses uint64 `json:"misses"`
	// Waits counts the subset of misses that blocked on another
	// goroutine's in-flight computation instead of scoring themselves
	// (the singleflight collapse of a thundering herd).
	Waits uint64 `json:"waits"`
	// Entries is the number of memoized scores in the live generation.
	Entries int `json:"entries"`
	// Generation numbers the live generation: 0 for the engine's first,
	// one more for each Ingest that appends rows and each RestoreSnapshot
	// (or InvalidateCache). Entries of older generations are gone.
	Generation uint64 `json:"generation"`
}

// table is one class's candidate tuples in enumeration order; a
// candidate is its position. It never changes once built, and the
// successors whose enumeration is the same share it.
type table struct {
	tuples [][]string
	// keys[p] is tuples[p] joined with ",", the end of Key().
	keys []string
	// all lists every position, ascending: a whole-class read.
	all []int32
	// postings maps each attribute to the ascending positions holding it.
	postings map[string][]int32
	// byKey lists every position in key order, built at the first
	// position lookup.
	byKeyOnce sync.Once
	byKey     []int32
}

func newTable(tuples [][]string) *table {
	t := &table{tuples: tuples, keys: make([]string, len(tuples)), all: make([]int32, len(tuples)), postings: make(map[string][]int32)}
	for p, attrs := range tuples {
		t.keys[p], t.all[p] = strings.Join(attrs, ","), int32(p)
		for i, a := range attrs {
			if !slices.Contains(attrs[:i], a) {
				t.postings[a] = append(t.postings[a], int32(p))
			}
		}
	}
	return t
}

// position returns the position of attrs in t, and false when t does
// not hold it. Names may hold commas, so tuples can share a key.
func (t *table) position(attrs []string) (int32, bool) {
	t.byKeyOnce.Do(func() {
		t.byKey = slices.Clone(t.all)
		slices.SortFunc(t.byKey, func(a, b int32) int { return strings.Compare(t.keys[a], t.keys[b]) })
	})
	key := strings.Join(attrs, ",")
	i, _ := slices.BinarySearchFunc(t.byKey, key, func(p int32, key string) int { return strings.Compare(t.keys[p], key) })
	for ; i < len(t.byKey) && t.keys[t.byKey[i]] == key; i++ {
		if p := t.byKey[i]; slices.Equal(t.tuples[p], attrs) {
			return p, true
		}
	}
	return 0, false
}

// slot is one candidate's score in a column: empty (both fields nil),
// in flight (wait is the claiming pass's done channel) or done.
type slot struct {
	wait chan struct{}
	done *scored
}

// scored is a done slot's insight, and the certificate an exact score
// of a core.Successor left (nil when none).
type scored struct {
	in   core.Insight
	cert core.Certificate
}

// column is a generation's scores of one class under a resolved metric
// on one backend, and mu the generation's lock, under which its slots
// are written. carried holds, by position, the certificates handed down
// to an exact column (nil when there are none), each a bound on its
// tuple's exact score on the generation's frame.
type column struct {
	c       core.Class
	metric  string
	approx  bool
	t       *table
	mu      *sync.Mutex
	slots   []slot
	carried []core.Certificate
}

// generation is the engine's dataset and what has been computed from
// it. n, frame and profile never change; the fields below mu are
// guarded by it, and scoring itself runs outside the lock. prior holds
// the tables handed down, by class, and handed the exact columns handed
// down whose certificates no column of this generation has read yet.
type generation struct {
	n       uint64
	frame   *frame.Frame
	profile *sketch.DatasetProfile

	mu     *sync.Mutex
	prior  map[string]*table
	handed map[viewKey]*column
	tables map[string]*table
	cols   map[viewKey]*column
	views  map[viewKey]*classView
	done   int // done slots, over every column
}

// newGeneration is a generation of f and p handed nothing.
func newGeneration(n uint64, f *frame.Frame, p *sketch.DatasetProfile) *generation {
	return &generation{
		n: n, frame: f, profile: p,
		mu:     new(sync.Mutex),
		tables: make(map[string]*table),
		cols:   make(map[viewKey]*column),
		views:  make(map[viewKey]*classView),
	}
}

// successor is the generation of f, which extends g's frame by appended
// rows, and p. It is handed g's tables and exact columns, and what g was
// handed of the rest: a certificate bounds its tuple on any frame that
// extends the one it was made on. Only the two small maps are copied.
func (g *generation) successor(f *frame.Frame, p *sketch.DatasetProfile) *generation {
	s := newGeneration(g.n+1, f, p)
	g.mu.Lock()
	defer g.mu.Unlock()
	s.prior, s.handed = maps.Clone(g.prior), maps.Clone(g.handed)
	if s.prior == nil {
		s.prior, s.handed = make(map[string]*table), make(map[viewKey]*column)
	}
	maps.Copy(s.prior, g.tables)
	for k, col := range g.cols {
		if !k.approx {
			s.handed[k] = col
		}
	}
	return s
}

// column returns g's column of c under metric on the given backend,
// built at its first read, with the class's table (the one handed down
// when the enumeration is the same) and, by position, the certificates
// handed down for it. A changed table takes none: a certificate is only
// a bound, so the column is scored whole.
func (g *generation) column(c core.Class, metric string, approx bool) *column {
	k := viewKey{c.Name(), metric, approx}
	g.mu.Lock()
	defer g.mu.Unlock()
	if col := g.cols[k]; col != nil {
		return col
	}
	t := g.tables[k.class]
	if t == nil {
		tuples := c.Candidates(g.frame)
		if t = g.prior[k.class]; t == nil || !slices.EqualFunc(t.tuples, tuples, slices.Equal[[]string]) {
			t = newTable(tuples)
		}
		g.tables[k.class] = t
	}
	col := &column{c: c, metric: metric, approx: approx, t: t, mu: g.mu, slots: make([]slot, len(t.tuples))}
	if h := g.handed[k]; h != nil {
		if h.t == t {
			col.carried = h.certificates()
		}
		// Read once: the retired column's insights may go.
		delete(g.handed, k)
	}
	g.cols[k] = col
	return col
}

// certificates returns, by position, the certificate of each done slot
// of col, or else the one col carried; nil when there is none.
func (col *column) certificates() []core.Certificate {
	col.mu.Lock()
	defer col.mu.Unlock()
	out := slices.Clone(col.carried)
	for p, s := range col.slots {
		if s.done != nil && s.done.cert != nil {
			if out == nil {
				out = make([]core.Certificate, len(col.slots))
			}
			out[p] = s.done.cert
		}
	}
	return out
}

// CacheStats returns a snapshot of the scoring-cache counters.
func (e *Engine) CacheStats() CacheStats {
	g := e.gen.Load()
	g.mu.Lock()
	entries := g.done
	g.mu.Unlock()
	return CacheStats{
		Hits:       e.hits.Load(),
		Misses:     e.misses.Load(),
		Waits:      e.waits.Load(),
		Entries:    entries,
		Generation: g.n,
	}
}
