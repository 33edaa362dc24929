package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"foresight/internal/frame"
	"foresight/internal/query"
)

// Live ingest over HTTP: POST /api/ingest accepts a row batch as CSV
// (with a header naming dataset columns) or JSON ({"columns": [...],
// "rows": [[...]]} or {"rows": [{column: value}]}), bounded by the
// usual body cap. Batches flow through a small bounded queue drained
// by one worker goroutine, which coalesces whatever is queued into a
// single Engine.Ingest — under a burst of small appends the sketch
// delta and cache invalidation run once per group instead of once per
// request. The response is 202 Accepted with the rows taken from this
// request, the dataset's new row count, and the new score-cache
// generation; a full queue sheds with 503 + Retry-After, the same
// back-pressure contract as the inflight gate.

// maxCoalescedRows bounds how many rows the worker folds into one
// Engine.Ingest before replying; beyond it, waiters would trade too
// much acknowledgement latency for batching.
const maxCoalescedRows = 100000

// errServerClosing fails batches still queued when Close runs.
var errServerClosing = errors.New("ingest: server closing")

type ingestReply struct {
	res query.IngestResult
	err error
}

// ingestJob is one accepted batch: records normalized to the frame's
// full column order (so queued jobs concatenate directly), the
// requester's context (its values — request ID, trace — follow the
// batch into the engine; its cancellation does not, because an applied
// batch must be acknowledged truthfully even if the client left), and
// a buffered reply channel so the worker never blocks on a waiter.
type ingestJob struct {
	ctx     context.Context
	records [][]string
	done    chan ingestReply
}

// startIngest wires the queue, metrics, and worker; called from New.
func (s *Server) startIngest(queueSize int) {
	if queueSize <= 0 {
		queueSize = defaultIngestQueue
	}
	s.ingestQ = make(chan *ingestJob, queueSize)
	s.ingestStop = make(chan struct{})
	reg := s.registry
	s.ingestRequests = reg.Counter("foresight_ingest_requests_total",
		"Ingest requests accepted into the queue.")
	s.ingestRejected = reg.Counter("foresight_ingest_rejected_total",
		"Ingest requests shed because the queue was full (returned as 503).")
	s.ingestRows = reg.Counter("foresight_ingest_rows_total",
		"Rows applied to the dataset by ingest.")
	s.ingestBatches = reg.Counter("foresight_ingest_batches_total",
		"Engine ingests applied (coalesced groups count once).")
	s.ingestCoalesced = reg.Counter("foresight_ingest_coalesced_total",
		"Ingest requests folded into another request's engine ingest.")
	s.ingestSeconds = reg.Histogram("foresight_ingest_seconds",
		"Engine ingest latency (append + sketch delta + swap).", nil)
	reg.GaugeFunc("foresight_ingest_queue_depth",
		"Ingest batches waiting in the queue.",
		func() float64 { return float64(len(s.ingestQ)) })
	s.ingestWG.Add(1)
	go s.ingestWorker()
}

// Close stops the ingest worker, failing batches still queued with a
// server-closing error, and waits for it to exit. The HTTP routes
// remain usable for reads; further ingest posts fail fast with 503
// (handleIngest selects on ingestStop). Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.ingestStop) })
	s.ingestWG.Wait()
	// Sweep batches that slipped into the queue after the worker's own
	// drain; their handlers are waiting on done (or already gone).
	for {
		select {
		case j := <-s.ingestQ:
			j.done <- ingestReply{err: errServerClosing}
		default:
			return
		}
	}
}

// ingestWorker drains the queue: one job, plus whatever else is
// already queued (up to maxCoalescedRows), applied as one engine
// ingest. On a group failure each job is retried alone so one bad
// batch cannot poison the others' acknowledgements.
func (s *Server) ingestWorker() {
	defer s.ingestWG.Done()
	for {
		select {
		case <-s.ingestStop:
			for {
				select {
				case j := <-s.ingestQ:
					j.done <- ingestReply{err: errServerClosing}
				default:
					return
				}
			}
		case j := <-s.ingestQ:
			group := []*ingestJob{j}
			rows := len(j.records)
		coalesce:
			for rows < maxCoalescedRows {
				select {
				case nj := <-s.ingestQ:
					group = append(group, nj)
					rows += len(nj.records)
				default:
					break coalesce
				}
			}
			if len(group) > 1 {
				s.ingestCoalesced.Add(uint64(len(group) - 1))
			}
			records := make([][]string, 0, rows)
			for _, gj := range group {
				records = append(records, gj.records...)
			}
			// The lead request's context carries its trace and request ID
			// into the engine spans; cancellation is stripped because the
			// group is applied on behalf of every waiter.
			ctx := context.WithoutCancel(group[0].ctx)
			start := time.Now()
			res, err := s.engine.Ingest(ctx, frame.RowBatch{Records: records}, nil)
			s.ingestSeconds.Observe(time.Since(start).Seconds())
			if err != nil && len(group) > 1 {
				for _, gj := range group {
					r2, e2 := s.engine.Ingest(context.WithoutCancel(gj.ctx),
						frame.RowBatch{Records: gj.records}, nil)
					if e2 == nil {
						s.ingestBatches.Inc()
						s.ingestRows.Add(uint64(len(gj.records)))
					}
					gj.done <- ingestReply{res: r2, err: e2}
				}
				continue
			}
			if err == nil {
				s.ingestBatches.Inc()
				s.ingestRows.Add(uint64(rows))
			}
			for _, gj := range group {
				gj.done <- ingestReply{res: res, err: err}
			}
		}
	}
}

// handleIngest accepts one row batch and replies 202 once it has been
// applied (possibly coalesced with neighbors). The body cap, queue
// bound, and per-request deadline make the path fully bounded; a
// client that stops waiting gets the usual 504/499 mapping while its
// already-queued batch still applies.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.ingestRequests.Inc()
	// Writes are rejected until startup recovery has replayed the WAL:
	// accepting a batch before the log is open again would ack rows the
	// durability layer cannot log.
	if !s.ready.Load() {
		s.ingestRejected.Inc()
		w.Header().Set("Retry-After", "1")
		s.jsonError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("ingest unavailable: startup recovery in progress; retry shortly"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	names := s.engine.Frame().Names()
	var records [][]string
	var err error
	if ct := r.Header.Get("Content-Type"); strings.Contains(ct, "csv") {
		records, err = parseCSVBatch(r.Body, names)
	} else {
		records, err = parseJSONBatch(r.Body, names)
	}
	if err != nil {
		s.jsonError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(records) == 0 {
		s.jsonError(w, r, http.StatusBadRequest, fmt.Errorf("ingest: no rows in batch"))
		return
	}
	j := &ingestJob{ctx: r.Context(), records: records, done: make(chan ingestReply, 1)}
	select {
	case <-s.ingestStop:
		// Fail fast after Close: the worker is gone, so waiting on the
		// queue would only ride out the request deadline.
		s.closingError(w, r)
		return
	default:
	}
	select {
	case s.ingestQ <- j:
	default:
		s.ingestRejected.Inc()
		w.Header().Set("Retry-After", "1")
		s.jsonError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("ingest queue full (%d batches pending); retry shortly", cap(s.ingestQ)))
		return
	}
	select {
	case <-r.Context().Done():
		// The queued batch may still apply; only the acknowledgement is
		// abandoned.
		s.jsonError(w, r, http.StatusGatewayTimeout, r.Context().Err())
	case <-s.ingestStop:
		// Shutdown raced the enqueue. The worker's drain (or Close's
		// sweep, or an in-flight apply) still replies; give it a moment
		// so an applied batch is acknowledged truthfully instead of
		// being reported retryable (a false 503 would invite a duplicate
		// retry).
		select {
		case rep := <-j.done:
			s.ingestReply(w, r, rep, len(records))
		case <-time.After(2 * time.Second):
			s.closingError(w, r)
		}
	case rep := <-j.done:
		s.ingestReply(w, r, rep, len(records))
	}
}

// ingestReply writes the worker's verdict: 202 with the new row count
// and generation on success, 503 + Retry-After when the server was
// closing (the batch did not apply and the client should retry against
// the restarted process), 500 otherwise.
func (s *Server) ingestReply(w http.ResponseWriter, r *http.Request, rep ingestReply, accepted int) {
	if errors.Is(rep.err, errServerClosing) {
		s.closingError(w, r)
		return
	}
	if rep.err != nil {
		s.jsonError(w, r, http.StatusInternalServerError, rep.err)
		return
	}
	s.writeJSONStatus(w, http.StatusAccepted, map[string]interface{}{
		"rows_accepted": accepted,
		"row_count":     rep.res.TotalRows,
		"generation":    rep.res.Generation,
	})
}

func (s *Server) closingError(w http.ResponseWriter, r *http.Request) {
	s.ingestRejected.Inc()
	w.Header().Set("Retry-After", "1")
	s.jsonError(w, r, http.StatusServiceUnavailable,
		fmt.Errorf("ingest unavailable: %w", errServerClosing))
}

// parseCSVBatch reads a CSV body whose header names dataset columns
// and returns records normalized to full frame order.
func parseCSVBatch(r io.Reader, names []string) ([][]string, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("ingest: reading CSV header: %w", err)
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: reading CSV record: %w", err)
		}
		rows = append(rows, rec)
	}
	return normalizeBatch(header, rows, names)
}

// parseJSONBatch reads a JSON body of either row shape and returns
// records normalized to full frame order. Array rows follow the
// "columns" list (the frame's column order when absent); object rows
// key cells by column name directly.
func parseJSONBatch(r io.Reader, names []string) ([][]string, error) {
	var req struct {
		Columns []string          `json:"columns"`
		Rows    []json.RawMessage `json:"rows"`
	}
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("ingest: decoding JSON body: %w", err)
	}
	byName := indexNames(names)
	var arrays [][]string
	var objects [][]string
	for i, raw := range req.Rows {
		trimmed := strings.TrimSpace(string(raw))
		if strings.HasPrefix(trimmed, "[") {
			var vals []interface{}
			if err := json.Unmarshal(raw, &vals); err != nil {
				return nil, fmt.Errorf("ingest: row %d: %w", i, err)
			}
			cells := make([]string, len(vals))
			for ci, v := range vals {
				cell, err := cellString(v)
				if err != nil {
					return nil, fmt.Errorf("ingest: row %d, cell %d: %w", i, ci, err)
				}
				cells[ci] = cell
			}
			arrays = append(arrays, cells)
			continue
		}
		var obj map[string]interface{}
		if err := json.Unmarshal(raw, &obj); err != nil {
			return nil, fmt.Errorf("ingest: row %d: %w", i, err)
		}
		rec := make([]string, len(names))
		for k, v := range obj {
			ci, ok := byName[k]
			if !ok {
				return nil, fmt.Errorf("ingest: row %d: unknown column %q (dataset has %v)", i, k, names)
			}
			cell, err := cellString(v)
			if err != nil {
				return nil, fmt.Errorf("ingest: row %d, column %q: %w", i, k, err)
			}
			rec[ci] = cell
		}
		objects = append(objects, rec)
	}
	if len(arrays) > 0 && len(objects) > 0 {
		return nil, fmt.Errorf("ingest: mixed array and object rows in one batch")
	}
	if len(arrays) > 0 {
		cols := req.Columns
		if len(cols) == 0 {
			cols = names
		}
		return normalizeBatch(cols, arrays, names)
	}
	return objects, nil
}

// cellString renders one JSON cell value the way frame ingestion
// expects it: null becomes the empty (missing) cell, numbers use %g
// (which float64 round-trips exactly).
func cellString(v interface{}) (string, error) {
	switch x := v.(type) {
	case nil:
		return "", nil
	case string:
		return x, nil
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), nil
	case bool:
		if x {
			return "true", nil
		}
		return "false", nil
	}
	return "", fmt.Errorf("unsupported cell type %T", v)
}

// normalizeBatch maps rows keyed by cols to full frame-order records
// (unnamed frame columns get missing cells), so every queued batch
// shares one layout and concatenates directly.
func normalizeBatch(cols []string, rows [][]string, names []string) ([][]string, error) {
	byName := indexNames(names)
	pos := make([]int, len(cols))
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		c = strings.TrimSpace(c)
		ci, ok := byName[c]
		if !ok {
			return nil, fmt.Errorf("ingest: unknown column %q (dataset has %v)", c, names)
		}
		if seen[c] {
			return nil, fmt.Errorf("ingest: duplicate column %q", c)
		}
		seen[c] = true
		pos[i] = ci
	}
	out := make([][]string, len(rows))
	for ri, row := range rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("ingest: row %d has %d cells, want %d", ri, len(row), len(cols))
		}
		rec := make([]string, len(names))
		for i, cell := range row {
			rec[pos[i]] = cell
		}
		out[ri] = rec
	}
	return out, nil
}

func indexNames(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	return m
}
