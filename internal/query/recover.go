package query

import (
	"fmt"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// DurableSink receives every applied ingest batch before Ingest
// reports success. The durability manager (internal/durable) implements
// it with a write-ahead-log append: a batch is acknowledged to the
// client only after the sink accepts it, so the engine's in-memory
// state never runs ahead of what a restart can recover (modulo the
// configured fsync policy's window).
type DurableSink interface {
	// AppendBatch is called under the engine's ingest lock, after the
	// batch has been applied to the engine and before Ingest returns.
	// An error fails the ingest call (the rows are applied in memory
	// but reported as unacknowledged).
	AppendBatch(batch frame.RowBatch, res IngestResult) error
}

// SetDurableSink attaches (or, with nil, detaches) the durable sink.
// It takes the ingest lock, so after it returns no in-flight Ingest is
// still using the previous sink. Recovery replay calls Ingest before
// installing the sink — replayed batches are already in the log and
// must not be logged again.
func (e *Engine) SetDurableSink(s DurableSink) {
	e.lockIngest()
	e.durableSink = s
	e.unlockIngest()
}

// lockIngest takes the ingest lock (Engine.ingestSlot) whatever the
// wait; only Ingest waits for it under a context.
func (e *Engine) lockIngest() { e.ingestSlot <- struct{}{} }

func (e *Engine) unlockIngest() { <-e.ingestSlot }

// RestoreSnapshot installs a recovered (frame, profile) pair as the
// engine's current state — the checkpoint fast path: the snapshot
// already carries the sketch store that was live when it was written,
// so recovery skips re-sketching the snapshot's rows. A saved profile
// carries no worker count, so p, which the caller hands over and no
// one else holds yet, takes the one of the profile it replaces: a
// restored store extends on the workers a built one would. A profile
// must sketch exactly f's rows: one that does not could never extend
// correctly, so it is refused; a nil p keeps the current profile. The
// pair becomes a fresh generation, as an ingest's does, but one that
// carries no certificates: nothing says f extends the frame they were
// made on. RestoreSnapshot(e.Frame(), nil) starts a fresh generation on
// the same data.
func (e *Engine) RestoreSnapshot(f *frame.Frame, p *sketch.DatasetProfile) error {
	if f == nil {
		return fmt.Errorf("query: restore with nil frame")
	}
	if p != nil && p.Rows != f.Rows() {
		return fmt.Errorf("query: restore: the profile sketches %d rows, the frame has %d", p.Rows, f.Rows())
	}
	e.lockIngest()
	defer e.unlockIngest()
	g := e.gen.Load()
	if p == nil {
		p = g.profile
	} else if g.profile != nil {
		p.Config.Workers = g.profile.Config.Workers
	}
	e.gen.Store(newGeneration(g.n+1, f, p, nil))
	return nil
}

// InvalidateCache starts a fresh generation on the live data, as
// RestoreSnapshot(e.Frame(), nil) does, without an ingest landing
// between reading the frame and restoring it.
//
// Deprecated: use RestoreSnapshot. InvalidateCache remains for
// benchmark/layers, which times cold passes with it.
func (e *Engine) InvalidateCache() {
	e.lockIngest()
	defer e.unlockIngest()
	g := e.gen.Load()
	e.gen.Store(newGeneration(g.n+1, g.frame, g.profile, nil))
}
