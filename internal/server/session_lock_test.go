package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"foresight/internal/core"
)

// answerBudget is how long a request that waits on nothing may take
// before the test calls it held.
const answerBudget = 5 * time.Second

// sessionHandler is a lifecycle test server over the given classes,
// served in-process.
func sessionHandler(t *testing.T, classes ...core.Class) http.Handler {
	ts, _ := newLifecycleServer(t, classes, Options{})
	return ts.Config.Handler
}

// serveAsync serves req in the background; the channel yields its
// status once it answers.
func serveAsync(h http.Handler, req *http.Request) <-chan int {
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	return done
}

// answersWithin reports the status req gets, or 0 when it gets none
// within answerBudget (the request keeps waiting in the background).
func answersWithin(h http.Handler, req *http.Request) int {
	select {
	case code := <-serveAsync(h, req):
		return code
	case <-time.After(answerBudget):
		return 0
	}
}

// stallBody is a request body that delivers head and then stalls
// until release is closed, like a client that stops sending mid-body.
// stalled is closed when the reader first waits.
type stallBody struct {
	head             []byte
	once             sync.Once
	stalled, release chan struct{}
}

func (b *stallBody) Read(p []byte) (int, error) {
	if len(b.head) > 0 {
		n := copy(p, b.head)
		b.head = b.head[n:]
		return n, nil
	}
	b.once.Do(func() { close(b.stalled) })
	<-b.release
	return 0, io.ErrUnexpectedEOF
}

func skewClass(t *testing.T) core.Class {
	t.Helper()
	c, ok := core.NewRegistry().Lookup("skew")
	if !ok {
		t.Fatal("no skew class")
	}
	return c
}

func focusRequestOn(attr string) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/api/focus",
		strings.NewReader(`{"class":"skew","attrs":["`+attr+`"]}`))
}

// A client that stalls a session restore mid-body holds no other
// request: the body is read before the session lock is taken.
func TestStalledStateBodyHoldsNoRequest(t *testing.T) {
	srv := sessionHandler(t, skewClass(t))
	body := &stallBody{head: []byte(`{"data`), stalled: make(chan struct{}), release: make(chan struct{})}
	restore := serveAsync(srv, httptest.NewRequest(http.MethodPost, "/api/state", body))
	<-body.stalled
	defer func() {
		close(body.release)
		if code := <-restore; code != http.StatusBadRequest {
			t.Errorf("cut-off restore = %d, want 400", code)
		}
	}()

	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/api/carousels?k=3", nil),
		httptest.NewRequest(http.MethodGet, "/api/stats", nil),
		focusRequestOn("SelfReportedHealth"),
	} {
		if code := answersWithin(srv, req); code != http.StatusOK {
			t.Errorf("%s %s beside a stalled restore = %d, want 200 within %v", req.Method, req.URL, code, answerBudget)
		}
	}
}

// A carousel held mid-scoring holds no session write and no reader
// behind it: the carousel scores a copy of the session, outside the
// lock.
func TestSlowCarouselHoldsNoFocus(t *testing.T) {
	lag := &lagClass{gate: make(chan struct{})}
	srv := sessionHandler(t, skewClass(t), lag)
	carousel := serveAsync(srv, httptest.NewRequest(http.MethodGet, "/api/carousels?k=3", nil))
	waitForCond(t, "carousel to start scoring", func() bool { return lag.calls.Load() >= 1 })
	defer func() {
		close(lag.gate)
		if code := <-carousel; code != http.StatusOK {
			t.Errorf("gated carousel = %d, want 200", code)
		}
	}()

	for _, req := range []*http.Request{
		focusRequestOn("SelfReportedHealth"),
		httptest.NewRequest(http.MethodGet, "/api/stats", nil),
	} {
		if code := answersWithin(srv, req); code != http.StatusOK {
			t.Errorf("%s %s beside a gated carousel = %d, want 200 within %v", req.Method, req.URL, code, answerBudget)
		}
	}
}
