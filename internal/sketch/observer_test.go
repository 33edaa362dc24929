package sketch

import (
	"sync"
	"testing"
	"time"

	"foresight/internal/datagen"
)

func TestTimingObserver(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	SetTimingObserver(func(op string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %s", op)
		}
		mu.Lock()
		got[op]++
		mu.Unlock()
	})
	defer SetTimingObserver(nil)

	f := datagen.Scalable(datagen.ScalableConfig{Rows: 500, NumericCols: 4, CatCols: 2, Seed: 3})
	_ = BuildProfile(f, ProfileConfig{Seed: 1, Spearman: true})
	for _, op := range []string{"build", "build.sketch", "build.project", "build.spearman", "build.rowsample"} {
		if got[op] != 1 {
			t.Errorf("op %s observed %d times, want 1", op, got[op])
		}
	}

	// An extension reports where its time went.
	p := BuildProfile(f, ProfileConfig{Seed: 1})
	f2, err := f.AppendRows(rowsOf(f, 0, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := p.Extend(f2)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"extend", "extend.copy", "extend.delta", "extend.merge", "extend.rowsample"} {
		if got[op] != 1 {
			t.Errorf("op %s observed %d times, want 1", op, got[op])
		}
	}
	// The row sample it took slots of is built by its first reader,
	// once.
	if got["sample.build"] != 0 {
		t.Errorf("Extend built %d sample arrays nobody read", got["sample.build"])
	}
	ext.RowSample.Indexes()
	ext.RowSample.Indexes()
	if got["sample.build"] != 1 {
		t.Errorf("two reads of the row sample reported %d sample builds, want 1", got["sample.build"])
	}

	// One phase table at any worker count: a build or an extension on
	// workers is one more "build" or "extend", not a phase of its own,
	// and an extension folds its delta in with one merge.
	big := datagen.Scalable(datagen.ScalableConfig{Rows: 3 * directionGranule, NumericCols: 2, Seed: 3})
	_ = BuildProfile(big, ProfileConfig{Seed: 1, Workers: 3})
	grown, err := big.AppendRows(rowsOf(big, 0, 2*directionGranule), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildProfile(big, ProfileConfig{Seed: 1, Workers: 2}).Extend(grown); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for op, want := range map[string]int{"build": 4, "extend": 2, "extend.delta": 2, "merge": 2} {
		if got[op] != want {
			t.Errorf("op %s observed %d times, want %d", op, got[op], want)
		}
	}
	for op := range got {
		switch op {
		case "build.merge", "build.sharded", "build.partitioned", "extend.sharded":
			t.Errorf("retired phase %s still reported", op)
		}
	}
}

func TestTimingObserverUninstalled(t *testing.T) {
	SetTimingObserver(nil)
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 100, NumericCols: 2, Seed: 3})
	_ = BuildProfile(f, ProfileConfig{Seed: 1}) // must not panic
}
