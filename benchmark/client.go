package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// recorder collects what one run observes: per-operation latency
// samples in milliseconds, request and failure counts, and the body
// hash seen at each script position (the bit-identity oracle).
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64
	attempted int
	failed    int
	problems  []string
	bodies    map[string][sha256.Size]byte
}

func newRecorder() *recorder {
	return &recorder{
		samples: map[string][]float64{},
		bodies:  map[string][sha256.Size]byte{},
	}
}

func (r *recorder) sample(op string, v float64) {
	r.mu.Lock()
	r.samples[op] = append(r.samples[op], v)
	r.mu.Unlock()
}

// fail counts one failed request or failed correctness check; the
// first few are kept verbatim for the report.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// sameBody checks that the body at a script position is byte-identical
// to every earlier body at that position: within a process that is the
// memo's bit-identity, across rounds the determinism of load, profile
// build and scoring.
func (r *recorder) sameBody(position string, body []byte) {
	sum := sha256.Sum256(body)
	r.mu.Lock()
	prev, seen := r.bodies[position]
	if !seen {
		r.bodies[position] = sum
	}
	r.mu.Unlock()
	if seen && prev != sum {
		r.fail("body at %s differs from the earlier body at the same position", position)
	}
}

// client is one closed-loop caller: it sends its next request only
// after the previous reply has been read in full.
type client struct {
	http *http.Client
	base string
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	// The server answers within its 5 s request deadline (504) or the
	// run has a bug; the client's own limit only stops a hang.
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, rec: rec}
}

// do sends one request, reads the reply in full and counts it; the
// elapsed time covers both. A transport error or a status other than
// want is a failure and returns ok false. A non-empty op records the
// latency under that name.
func (c *client) do(op, method, path, ctype string, body []byte, want int) (reply []byte, ms float64, ok bool) {
	c.rec.mu.Lock()
	c.rec.attempted++
	c.rec.mu.Unlock()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.rec.fail("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.rec.fail("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ms = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		c.rec.fail("%s %s: reading reply: %v", method, path, err)
		return nil, 0, false
	}
	if resp.StatusCode != want {
		c.rec.fail("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, reply)
		return reply, ms, false
	}
	if op != "" {
		c.rec.sample(op, ms)
	}
	return reply, ms, true
}

func (c *client) get(op, path string) ([]byte, bool) {
	reply, _, ok := c.do(op, http.MethodGet, path, "", nil, http.StatusOK)
	return reply, ok
}

func (c *client) postJSON(op, path string, body []byte) ([]byte, bool) {
	reply, _, ok := c.do(op, http.MethodPost, path, "application/json", body, http.StatusOK)
	return reply, ok
}

// ingest posts a CSV batch and expects 202.
func (c *client) ingest(op string, csv []byte) ([]byte, bool) {
	reply, _, ok := c.do(op, http.MethodPost, "/api/ingest", "text/csv", csv, http.StatusAccepted)
	return reply, ok
}
