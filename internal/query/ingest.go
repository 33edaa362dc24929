package query

import (
	"context"
	"fmt"
	"time"

	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/sketch"
)

// Live ingest: the engine accepts appended row batches without a full
// rebuild. The frame grows by AppendRows (immutable — readers keep
// the one they loaded), the sketch store grows by the mergeable-sketch
// delta path (sketch.DatasetProfile.Extend profiles just the new rows
// and folds them in via Merge, paper §3, on the workers the profile was
// built with — foresightd's -workers), and the pair is stored as the
// next generation (cache.go) in one atomic swap, so every query that
// loaded the generation before sees the old dataset and every query
// after sees the new one.

// IngestResult reports one applied ingest batch.
type IngestResult struct {
	// RowsAppended is the number of rows in the applied batch.
	RowsAppended int `json:"rows_appended"`
	// TotalRows is the frame's row count after the append.
	TotalRows int `json:"total_rows"`
	// Generation numbers the engine's generation after the batch
	// (CacheStats.Generation): one more than before when rows were
	// appended, so a client can tell whether a response was computed
	// before or after its batch landed.
	Generation uint64 `json:"generation"`
}

// Ingest appends a batch of rows to the engine's dataset and extends
// the sketch store incrementally (when one is attached). Concurrent
// Ingest calls serialize; queries are never blocked — they keep
// answering from the previous generation until the swap and from the
// new one after it. opts carries the missing-value rules
// (nil for ReadCSV defaults). With a durable sink installed only the
// defaults are accepted: the log keeps a batch's raw cells and
// recovery re-reads them under the defaults, so a batch read under
// other rules would come back as different data.
//
// A call waiting behind another ingest waits under ctx: if ctx ends
// first it returns ctx's error and the batch never applies. The
// context is checked again before the work starts and between the two
// expensive phases (append, sketch delta); once the swap has happened
// the batch is applied regardless of ctx. On error the engine is
// untouched, and so it is by a batch of no rows, which reports the
// current row count and generation.
func (e *Engine) Ingest(ctx context.Context, batch frame.RowBatch, opts *frame.ReadCSVOptions) (IngestResult, error) {
	defer e.observeOp("ingest", time.Now())
	select {
	case e.ingestSlot <- struct{}{}:
	case <-ctx.Done():
		return IngestResult{}, e.noteCancel(ctx.Err())
	}
	defer e.unlockIngest()
	if err := ctx.Err(); err != nil {
		return IngestResult{}, e.noteCancel(err)
	}
	if e.durableSink != nil && !opts.MissingIsDefault() {
		return IngestResult{}, fmt.Errorf("query: ingest: missing-value rules other than the defaults cannot be logged (recovery re-reads a batch under the defaults)")
	}
	g := e.gen.Load()

	endAppend := obs.StartSpan(ctx, "ingest:append")
	f2, err := g.frame.AppendRows(batch, opts)
	endAppend()
	if err != nil {
		return IngestResult{}, err
	}
	if f2.Rows() == g.frame.Rows() {
		// Nothing appended: nothing to publish or log.
		return IngestResult{TotalRows: f2.Rows(), Generation: g.n}, nil
	}
	if err := ctx.Err(); err != nil {
		return IngestResult{}, e.noteCancel(err)
	}

	var p2 *sketch.DatasetProfile
	if g.profile != nil {
		endDelta := obs.StartSpan(ctx, "ingest:delta")
		p2, err = g.profile.Extend(f2)
		endDelta()
		if err != nil {
			return IngestResult{}, err
		}
	}

	next := g.successor(f2, p2)
	e.gen.Store(next)
	res := IngestResult{
		RowsAppended: f2.Rows() - g.frame.Rows(),
		TotalRows:    f2.Rows(),
		Generation:   next.n,
	}

	// Durability barrier: the batch is applied, now it must be logged
	// before the caller acknowledges it. A sink failure reports the
	// batch unacknowledged even though it is live in memory — the
	// client retries and the recovered state after a restart decides;
	// the alternative (ack without log) would silently lose acked rows
	// on the next crash.
	if e.durableSink != nil {
		endLog := obs.StartSpan(ctx, "ingest:wal")
		err := e.durableSink.AppendBatch(batch, res)
		endLog()
		if err != nil {
			return IngestResult{}, fmt.Errorf("batch applied in memory but WAL append failed (unacknowledged): %w", err)
		}
	}
	return res, nil
}
