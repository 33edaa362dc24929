package query

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/sketch"
)

func saveBytes(t *testing.T, p *sketch.DatasetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestOnWorkersMatchesSequential: an ingest extends the profile
// on the workers it was built with, while queries keep reading the
// previous one, and the result saves to the bytes the sequential
// extension does — a streaming batch and one of several thousand rows
// alike. Run with -race: the delta's goroutines must share nothing with
// in-flight queries.
func TestIngestOnWorkersMatchesSequential(t *testing.T) {
	const baseRows = 4000
	f := testFrame(baseRows, 11)
	for _, batchRows := range []int{50, 10240} {
		t.Run(fmt.Sprintf("rows=%d", batchRows), func(t *testing.T) {
			batch := ingestRows(batchRows, baseRows)
			f2, err := f.AppendRows(batch, nil)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5, K: 64}).Extend(f2)
			if err != nil {
				t.Fatal(err)
			}

			e, err := NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5, K: 64, Workers: 4}))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if _, err := e.ExecuteContext(context.Background(), Query{Approx: true, K: 3}); err != nil {
							t.Errorf("execute during ingest: %v", err)
							return
						}
					}
				}()
			}
			res, err := e.Ingest(context.Background(), batch, nil)
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalRows != baseRows+batchRows {
				t.Fatalf("total rows = %d, want %d", res.TotalRows, baseRows+batchRows)
			}
			if !bytes.Equal(saveBytes(t, e.Profile()), saveBytes(t, seq)) {
				t.Fatal("ingest on 4 workers saved different bytes than the sequential extension")
			}
		})
	}
}

// TestRestoreSnapshotKeepsWorkers: a saved profile carries no worker
// count, so a store restored from a snapshot takes the count of the one
// it replaces and extends on the same workers as a built one — to the
// same bytes.
func TestRestoreSnapshotKeepsWorkers(t *testing.T) {
	f := testFrame(600, 12)
	built := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 7, K: 32, Workers: 3})
	loaded, err := sketch.LoadProfile(bytes.NewReader(saveBytes(t, built)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config.Workers != 0 {
		t.Fatalf("a loaded profile runs on %d workers, want 0", loaded.Config.Workers)
	}
	e, err := NewEngine(f, core.NewRegistry(), built)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreSnapshot(f, loaded); err != nil {
		t.Fatal(err)
	}
	if got := e.Profile().Config.Workers; got != 3 {
		t.Fatalf("restored profile runs on %d workers, want the built one's 3", got)
	}

	batch := ingestRows(50, 600)
	if _, err := e.Ingest(context.Background(), batch, nil); err != nil {
		t.Fatal(err)
	}
	f2, err := f.AppendRows(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.Extend(f2)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Profile(); got.Config.Workers != 3 || !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("the restored store extended differently from the built one")
	}
}

// TestRestoreSnapshotRefusesMismatchedRows: a profile that sketches
// other rows than the frame's would extend from the wrong row, so the
// pair is refused and the engine keeps what it had.
func TestRestoreSnapshotRefusesMismatchedRows(t *testing.T) {
	f := testFrame(600, 13)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 7, K: 32})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := f.AppendRows(ingestRows(5, 600), nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := e.CacheStats().Generation
	if err := e.RestoreSnapshot(f2, p); err == nil {
		t.Fatal("restoring a 600-row profile with a 605-row frame should fail")
	}
	if e.Frame() != f || e.Profile() != p || e.CacheStats().Generation != gen {
		t.Fatal("a refused restore touched the engine")
	}
}
