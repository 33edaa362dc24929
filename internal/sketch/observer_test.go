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
	if _, err := p.Extend(f2); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"extend", "extend.copy", "extend.delta", "extend.merge", "extend.rowsample"} {
		if got[op] != 1 {
			t.Errorf("op %s observed %d times, want 1", op, got[op])
		}
	}

	// One phase table at any shard count: a sharded build is one more
	// "build" and a sharded extension one more "extend", not a phase of
	// their own; the tree reduction reports itself and its merges.
	if got["build.merge"] != 0 {
		t.Errorf("build.merge observed %d times before any sharded build, want 0", got["build.merge"])
	}
	big := datagen.Scalable(datagen.ScalableConfig{Rows: 3 * directionGranule, NumericCols: 2, Seed: 3})
	_ = BuildProfileSharded(big, ProfileConfig{Seed: 1}, 3)
	grown, err := big.AppendRows(rowsOf(big, 0, 2*directionGranule), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildProfile(big, ProfileConfig{Seed: 1}).ExtendSharded(grown, 2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for op, want := range map[string]int{"build": 4, "extend": 2, "build.merge": 2, "extend.delta": 2} {
		if got[op] != want {
			t.Errorf("op %s observed %d times, want %d", op, got[op], want)
		}
	}
	// Two merges reduce three shards, one reduces two, and each
	// extension folds its delta in with one more.
	if got["merge"] != 5 {
		t.Errorf("merge observed %d times, want 5", got["merge"])
	}
	for op := range got {
		switch op {
		case "build.sharded", "build.partitioned", "extend.sharded":
			t.Errorf("fork-named phase %s still reported", op)
		}
	}
}

func TestTimingObserverUninstalled(t *testing.T) {
	SetTimingObserver(nil)
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 100, NumericCols: 2, Seed: 3})
	_ = BuildProfile(f, ProfileConfig{Seed: 1}) // must not panic
}
