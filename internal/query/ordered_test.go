package query

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
)

// reloaded rebuilds f from its cells alone, as loading the same rows
// from disk would: new columns, no ordered view built or carried.
func reloaded(t *testing.T, f *frame.Frame) *frame.Frame {
	t.Helper()
	cols := make([]frame.Column, f.Cols())
	for i := range cols {
		switch c := f.Column(i).(type) {
		case *frame.NumericColumn:
			cols[i] = frame.NewNumericColumn(c.Name(), append([]float64(nil), c.Values()...))
		case *frame.CategoricalColumn:
			cc, err := frame.NewCategoricalFromCodes(c.Name(), append([]int32(nil), c.Codes()...), c.Dict())
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = cc
		}
	}
	out, err := frame.New(f.Name(), cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// orderedBatch renders rows for testFrame's schema with what an order
// merge can get wrong: values tied with older rows and with each
// other, values below and above everything seen, and missing cells.
func orderedBatch(n, from int) frame.RowBatch {
	records := make([][]string, n)
	for i := range records {
		v := fmt.Sprint((from+i)%7 - 3)
		gx := fmt.Sprint(float64((from+i)%3) * 9)
		records[i] = []string{v, v, "NA", fmt.Sprint(1000 - from - i), "1.5", gx, "", fmt.Sprintf("g%d", i%3), "z1"}
	}
	return frame.RowBatch{Records: records}
}

// TestFirstTouchCarouselsUnderIngest races exact carousels against
// ingest batches. Every new frame generation is first touched by
// several goroutines at once (building its column views inside
// sync.Once, from orders AppendRows carried forward), so the test
// catches a view crossing a generation, a wrong order merge and an
// unsynchronized first build: each carousel must deep-equal the
// carousel of some generation's rows freshly reloaded, and the one
// taken right after batch g lands must equal generation g's. Run with
// -race.
func TestFirstTouchCarouselsUnderIngest(t *testing.T) {
	const (
		batches = 5
		readers = 3
		k       = 4
	)
	ctx := context.Background()
	base := testFrame(600, 11)

	// What each generation must answer, from frames that share nothing
	// with the engine under test.
	want := make([][]Result, batches+1)
	f := base
	for g := 0; g <= batches; g++ {
		if g > 0 {
			var err error
			if f, err = f.AppendRows(orderedBatch(15, g*15), nil); err != nil {
				t.Fatal(err)
			}
		}
		fresh, err := NewEngine(reloaded(t, f), core.NewRegistry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want[g], err = fresh.CarouselsContext(ctx, k, false); err != nil {
			t.Fatal(err)
		}
	}

	e, err := NewEngine(reloaded(t, base), core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(4)
	generationOf := func(got []Result) int {
		for g := range want {
			if reflect.DeepEqual(got, want[g]) {
				return g
			}
		}
		return -1
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := e.CarouselsContext(ctx, k, false)
				if err != nil {
					t.Errorf("concurrent carousels: %v", err)
					return
				}
				if generationOf(got) < 0 {
					t.Error("concurrent carousels match no generation's freshly loaded rows")
					return
				}
			}
		}()
	}
	for g := 1; g <= batches; g++ {
		if _, err := e.Ingest(ctx, orderedBatch(15, g*15), nil); err != nil {
			t.Fatalf("ingest batch %d: %v", g, err)
		}
		if g == 1 || g == 3 {
			// Leave this generation to the readers: if none gets to it,
			// the next one inherits orders that were carried twice.
			continue
		}
		got, err := e.CarouselsContext(ctx, k, false)
		if err != nil {
			t.Fatal(err)
		}
		if gen := generationOf(got); gen != g {
			t.Errorf("carousels after batch %d match generation %d", g, gen)
		}
	}
	close(done)
	wg.Wait()
}
