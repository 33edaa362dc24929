package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// gateClass scores instantly except for blockAttr, whose Score blocks
// until gate is closed. It makes singleflight ownership windows
// deterministic: a request is provably "mid-scoring" while the gate
// is shut.
type gateClass struct {
	calls     atomic.Int64
	gate      chan struct{}
	blockAttr string
}

func (c *gateClass) Name() string          { return "gated" }
func (c *gateClass) Description() string   { return "test class with a blockable Score" }
func (c *gateClass) Arity() int            { return 1 }
func (c *gateClass) Metrics() []string     { return []string{"len"} }
func (c *gateClass) VisKind() core.VisKind { return core.VisBar }
func (c *gateClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (c *gateClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	c.calls.Add(1)
	if c.gate != nil && attrs[0] == c.blockAttr {
		<-c.gate
	}
	return core.Insight{
		Class: "gated", Metric: "len", Attrs: attrs,
		Score: float64(len(attrs[0])), Raw: float64(len(attrs[0])), Vis: core.VisBar,
	}, nil
}
func (c *gateClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return c.Score(nil, attrs, metric)
}

// panicClass panics when scoring panicAttr and scores normally
// otherwise.
type panicClass struct {
	panicAttr string
}

func (c *panicClass) Name() string          { return "panicky" }
func (c *panicClass) Description() string   { return "test class that panics on one attr" }
func (c *panicClass) Arity() int            { return 1 }
func (c *panicClass) Metrics() []string     { return []string{"len"} }
func (c *panicClass) VisKind() core.VisKind { return core.VisBar }
func (c *panicClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (c *panicClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	if attrs[0] == c.panicAttr {
		panic(fmt.Sprintf("scorer exploded on %s", attrs[0]))
	}
	return core.Insight{
		Class: "panicky", Metric: "len", Attrs: attrs,
		Score: float64(len(attrs[0])), Raw: float64(len(attrs[0])), Vis: core.VisBar,
	}, nil
}
func (c *panicClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return c.Score(nil, attrs, metric)
}

func gatedEngine(t *testing.T, gc *gateClass) *Engine {
	t.Helper()
	f := testFrame(100, 7)
	reg := core.NewEmptyRegistry()
	if err := reg.Register(gc); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A context cancelled before the call must return immediately without
// scoring anything, and count one cancellation — on every engine read.
func TestExecuteContextPreCancelled(t *testing.T) {
	focus := core.Insight{Class: "gated", Metric: "len", Attrs: []string{"a"}}
	for _, read := range []struct {
		name string
		call func(context.Context, *Engine) error
	}{
		{"execute", func(ctx context.Context, e *Engine) error {
			_, err := e.ExecuteContext(ctx, Query{})
			return err
		}},
		{"carousels", func(ctx context.Context, e *Engine) error {
			_, err := e.CarouselsContext(ctx, 3, false)
			return err
		}},
		{"overview", func(ctx context.Context, e *Engine) error {
			_, err := e.OverviewContext(ctx, "gated", "", false)
			return err
		}},
		{"neighborhood", func(ctx context.Context, e *Engine) error {
			_, err := e.NeighborhoodContext(ctx, focus, nil, 3, false)
			return err
		}},
		{"recommendations", func(ctx context.Context, e *Engine) error {
			s := NewSession(e, 3, false)
			s.FocusOn(focus)
			_, err := s.RecommendationsKContext(ctx, 3)
			return err
		}},
	} {
		t.Run(read.name, func(t *testing.T) {
			gc := &gateClass{}
			e := gatedEngine(t, gc)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := read.call(ctx, e); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n := gc.calls.Load(); n != 0 {
				t.Errorf("scored %d candidates after pre-cancelled ctx", n)
			}
			if c := e.Cancellations(); c != 1 {
				t.Errorf("cancellations = %d, want 1", c)
			}
		})
	}
}

// The singleflight wait must select on the waiter's own context: a
// waiter with a deadline returns DeadlineExceeded while the owner is
// still scoring, instead of blocking on the owner's done channel.
func TestSingleflightWaiterUnblocksOnCtxExpiry(t *testing.T) {
	gc := &gateClass{gate: make(chan struct{}), blockAttr: "a"}
	e := gatedEngine(t, gc)

	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.ExecuteContext(context.Background(), Query{}) // background ctx; blocks on the gate
		ownerDone <- err
	}()
	waitFor(t, "owner to reach the gated Score", func() bool { return gc.calls.Load() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.ExecuteContext(ctx, Query{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("waiter took %v to observe its deadline", d)
	}
	if c := e.Cancellations(); c == 0 {
		t.Error("waiter expiry not counted as a cancellation")
	}

	close(gc.gate)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner failed after release: %v", err)
	}
}

// An owner that gets cancelled mid-batch abandons its unscored slots;
// waiters are woken and score those candidates themselves rather than
// hanging or inheriting nothing.
func TestAbandonedSlotsRescoredByWaiter(t *testing.T) {
	gc := &gateClass{gate: make(chan struct{}), blockAttr: "a"}
	e := gatedEngine(t, gc)
	nCands := len((&gateClass{}).Candidates(e.Frame()))
	if nCands < 2 {
		t.Fatalf("test frame has %d numeric columns, need ≥ 2", nCands)
	}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.ExecuteContext(ownerCtx, Query{})
		ownerDone <- err
	}()
	waitFor(t, "owner to reach the gated Score", func() bool { return gc.calls.Load() >= 1 })

	waiterDone := make(chan error, 1)
	var waiterRes []Result
	go func() {
		res, err := e.ExecuteContext(context.Background(), Query{}) // background ctx: must not hang
		waiterRes = res
		waiterDone <- err
	}()
	// The waiter has joined the in-flight slots once the wait counter
	// covers every candidate.
	waitFor(t, "waiter to join the in-flight slots", func() bool {
		return e.CacheStats().Waits >= uint64(nCands)
	})

	cancelOwner()
	close(gc.gate) // release the blocked Score; owner then sees ctx and bails

	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want nil (rescore abandoned slots)", err)
	}
	if len(waiterRes) != 1 || len(waiterRes[0].Insights) != nCands {
		t.Fatalf("waiter results = %+v, want all %d candidates", waiterRes, nCands)
	}
	// Owner scored exactly one candidate (the gated one) before the
	// cancellation; the waiter rescored the abandoned rest.
	if n := gc.calls.Load(); n != int64(nCands) {
		t.Errorf("total Score calls = %d, want %d (1 owner + %d waiter rescores)", n, nCands, nCands-1)
	}
	// Nothing left dangling for future requests.
	if _, err := e.ExecuteContext(context.Background(), Query{}); err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
}

// A panicking scorer propagates to the caller (per request), leaves
// the engine serviceable, and never wedges the singleflight map.
func TestScorerPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := testFrame(100, 7)
			reg := core.NewEmptyRegistry()
			if err := reg.Register(&panicClass{panicAttr: "b"}); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(&gateClass{}); err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(f, reg, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkers(workers)

			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("expected the scorer panic to reach the caller")
					}
					if !strings.Contains(fmt.Sprint(r), "scorer exploded") {
						t.Fatalf("panic value %v lost the original message", r)
					}
				}()
				_, _ = e.ExecuteContext(context.Background(), Query{Classes: []string{"panicky"}})
			}()

			// The engine survives: other classes keep scoring, and the
			// in-flight map was cleaned up (a second panicky query panics
			// again rather than hanging on an orphaned slot).
			res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"gated"}})
			if err != nil || len(res) != 1 {
				t.Fatalf("post-panic query: res=%v err=%v", res, err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { _ = recover() }()
				_, _ = e.ExecuteContext(context.Background(), Query{Classes: []string{"panicky"}})
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("second panicky query hung on an orphaned singleflight slot")
			}
			waitFor(t, "worker pool to drain", func() bool { return e.ScoringInflight() == 0 })
		})
	}
	t.Run("run", testRunScorerPanic)
}

// Abandoning concurrent requests drains the worker pool and counts
// every cancellation, and the scores finished before the cancel stay
// memoized: a retry scores only what the cancelled pass never reached.
func TestAbandonedRequestsDrainWorkers(t *testing.T) {
	f := testFrame(200, 11)
	reg := core.NewEmptyRegistry()
	cc := &countingClass{delay: 10 * time.Millisecond}
	if err := reg.Register(cc); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(2)

	const clients = 4
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.CarouselsContext(ctx, 5, false)
		}(i)
	}
	waitFor(t, "scoring to start", func() bool { return cc.calls.Load() >= 1 })
	cancel()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("client %d: err = %v, want context.Canceled", i, err)
		}
	}
	if c := e.Cancellations(); c != clients {
		t.Errorf("cancellations = %d, want %d", c, clients)
	}
	waitFor(t, "worker pool to drain", func() bool { return e.ScoringInflight() == 0 })

	// Cancellation discards the wait, not the work: across the cancelled
	// pass and the retry every candidate is scored exactly once.
	if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if n, want := cc.calls.Load(), int64(len(cc.Candidates(f))); n != want {
		t.Errorf("Score calls across cancelled pass and retry = %d, want %d (one per candidate)", n, want)
	}
}
