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
	for _, op := range []string{"build", "build.numeric", "build.project", "build.spearman", "build.categorical"} {
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

	// Partitioned build reports its merges too.
	_ = BuildProfilePartitioned(f, ProfileConfig{Seed: 1}, 3)
	mu.Lock()
	defer mu.Unlock()
	if got["build.partitioned"] != 1 {
		t.Errorf("build.partitioned observed %d times, want 1", got["build.partitioned"])
	}
	if got["merge"] < 2 {
		t.Errorf("merge observed %d times, want ≥2 for 3 partitions", got["merge"])
	}
}

func TestTimingObserverUninstalled(t *testing.T) {
	SetTimingObserver(nil)
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 100, NumericCols: 2, Seed: 3})
	_ = BuildProfile(f, ProfileConfig{Seed: 1}) // must not panic
}
