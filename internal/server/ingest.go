package server

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"foresight/internal/frame"
)

// Live ingest over HTTP: POST /api/ingest accepts a row batch as CSV
// (with a header naming dataset columns) or JSON ({"columns": [...],
// "rows": [[...]]} or {"rows": [{column: value}]}), bounded by the
// usual body cap, and applies it with one Engine.Ingest under the
// request's context. The response is 202 Accepted with the rows taken
// from this request, the dataset's new row count, and the new
// score-cache generation. A request whose deadline passes while it
// waits for the engine's ingest lock answers 504 and its batch never
// applies, so a retry cannot land it twice.

// maxPendingIngests bounds the ingests admitted but not yet answered:
// the one applying and those waiting behind it. Past it POST
// /api/ingest sheds with 503 + Retry-After, the same back-pressure
// contract as the inflight gate.
const maxPendingIngests = 64

// instrumentIngest registers the ingest metrics; called from New.
func (s *Server) instrumentIngest() {
	reg := s.registry
	s.ingestRequests = reg.Counter("foresight_ingest_requests_total",
		"Ingest requests received.")
	s.ingestRejected = reg.Counter("foresight_ingest_rejected_total",
		"Ingest requests shed with 503 (too many pending, not ready, or closing).")
	s.ingestRows = reg.Counter("foresight_ingest_rows_total",
		"Rows applied to the dataset by ingest.")
	s.ingestBatches = reg.Counter("foresight_ingest_batches_total",
		"Engine ingests applied.")
	s.ingestSeconds = reg.Histogram("foresight_ingest_seconds",
		"Engine ingest latency (wait for the ingest lock + append + sketch delta + swap + WAL).", nil)
	reg.GaugeFunc("foresight_ingest_queue_depth",
		"Ingest batches admitted and not yet answered.",
		func() float64 { return float64(s.ingestPending.Load()) })
}

// Close refuses further ingest: a later POST /api/ingest answers 503 +
// Retry-After naming the shutdown. An ingest already admitted finishes
// and is answered truthfully; reads stay served. Safe to call more
// than once.
func (s *Server) Close() { s.closed.Store(true) }

// handleIngest applies one row batch and replies 202 once it has
// landed. The body cap, the pending bound, and the per-request
// deadline make the path fully bounded; a client that stops waiting
// gets the usual 504/499 mapping, and its batch applies only if the
// engine had already swapped it in.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.ingestRequests.Inc()
	// Writes are rejected until startup recovery has replayed the WAL:
	// accepting a batch before the log is open again would ack rows the
	// durability layer cannot log.
	if !s.ready.Load() {
		s.shedIngest(w, r, fmt.Errorf("ingest unavailable: startup recovery in progress; retry shortly"))
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
	if s.closed.Load() {
		s.shedIngest(w, r, fmt.Errorf("ingest unavailable: server closing"))
		return
	}
	if s.ingestPending.Add(1) > maxPendingIngests {
		s.ingestPending.Add(-1)
		s.shedIngest(w, r, fmt.Errorf("too many ingests pending (%d); retry shortly", maxPendingIngests))
		return
	}
	defer s.ingestPending.Add(-1)
	start := time.Now()
	res, err := s.engine.Ingest(r.Context(), frame.RowBatch{Records: records}, nil)
	s.ingestSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.jsonError(w, r, http.StatusInternalServerError, err)
		return
	}
	s.ingestBatches.Inc()
	s.ingestRows.Add(uint64(len(records)))
	s.writeJSONStatus(w, http.StatusAccepted, map[string]interface{}{
		"rows_accepted": len(records),
		"row_count":     res.TotalRows,
		"generation":    res.Generation,
	})
}

// shedIngest answers 503 + Retry-After: the batch did not apply and
// the client should retry.
func (s *Server) shedIngest(w http.ResponseWriter, r *http.Request, err error) {
	s.ingestRejected.Inc()
	w.Header().Set("Retry-After", "1")
	s.jsonError(w, r, http.StatusServiceUnavailable, err)
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
// (unnamed frame columns get missing cells).
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
