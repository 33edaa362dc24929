package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// TestQueryFixNamesAColumn: a fix= attribute that names no column is a
// 400 naming it, whether or not the class has a view; a column no
// candidate holds is an empty 200.
func TestQueryFixNamesAColumn(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	for round := 0; round < 2; round++ {
		for _, c := range []struct {
			query, names string
			code         int
		}{
			{"fix=zzz", `\"zzz\"`, 400},
			{"fix=,", `\"\"`, 400},
			{"fix=LifeSatisfaction,zzz", `\"zzz\"`, 400},
			{"fix=LifeSatisfaction&class=catassoc", "", 200},
			{"fix=LifeSatisfaction&class=linear&k=2", "", 200},
		} {
			code, _, body := fetch(t, ts.URL+"/api/query?"+c.query)
			if code != c.code || !strings.Contains(body, c.names) {
				t.Errorf("round %d %s: %d %s, want %d naming %s", round, c.query, code, body, c.code, c.names)
			}
		}
		// Every class's view, for the second round to read.
		if code, _, _ := fetch(t, ts.URL+"/api/query?k=0"); code != 200 {
			t.Fatal("whole-class query failed")
		}
	}
}

// FuzzQueryString drives GET /api/query on an in-process oecd server
// with arbitrary query strings, on the exact and the sketch backend.
// Whatever the string, the server answers 200 or 400, and a 200 is a
// decodable reply that answers each class at most once, with at most k
// insights, every one holding every fixed attribute.
func FuzzQueryString(f *testing.F) {
	for _, seed := range []string{
		"",
		"k=2&class=linear,linear",
		"fix=LifeSatisfaction&k=3",
		"fix=LifeSatisfaction,SelfReportedHealth&min=0.2&max=0.8&k=0",
		"fix=zzz",
		"fix=,",
		"class=bogus",
		"class=linear&metric=r2&k=-1",
		"min=NaN&max=Inf&fix=Country",
		"fix=LifeSatisfaction&min=NaN&k=3",
		"class=linear&max=nan",
		"max=-1",
		"k=1&fix=LifeSatisfaction&fix=Country&class=skew,linear,skew",
		"%zz&k=%",
	} {
		f.Add(seed)
	}
	fr := datagen.OECD(0, 42)
	p := sketch.BuildProfile(fr, sketch.ProfileConfig{Seed: 42, Spearman: true})
	engine, err := query.NewEngine(fr, core.NewRegistry(), p)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(engine, 5, false, Options{})
	f.Fuzz(func(t *testing.T, raw string) {
		for _, backend := range []string{"", "approx=1&"} {
			req, err := http.NewRequest(http.MethodGet, "/api/query?"+backend+raw, nil)
			if err != nil {
				return
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			nan := math.IsNaN(floatParam(req, "min", 0)) || math.IsNaN(floatParam(req, "max", 0))
			if nan && rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: a NaN score bound answered %d, want 400", req.URL.RawQuery, rec.Code)
			}
			switch rec.Code {
			case http.StatusBadRequest:
				continue
			case http.StatusOK:
			default:
				t.Fatalf("%q: status %d: %s", req.URL.RawQuery, rec.Code, rec.Body)
			}
			var reply struct {
				Results []query.Result `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("%q: undecodable 200: %v", req.URL.RawQuery, err)
			}
			k := intParam(req, "k", 10)
			var fixed []string
			if fix := req.URL.Query().Get("fix"); fix != "" {
				fixed = strings.Split(fix, ",")
			}
			var seen []string
			for _, r := range reply.Results {
				if slices.Contains(seen, r.Class) {
					t.Fatalf("%q: class %s answered twice", req.URL.RawQuery, r.Class)
				}
				seen = append(seen, r.Class)
				if k > 0 && len(r.Insights) > k {
					t.Fatalf("%q: %s has %d insights, k=%d", req.URL.RawQuery, r.Class, len(r.Insights), k)
				}
				for _, in := range r.Insights {
					for _, a := range fixed {
						if !slices.Contains(in.Attrs, a) {
							t.Fatalf("%q: %s lacks fixed %q", req.URL.RawQuery, in.Key(), a)
						}
					}
				}
			}
		}
	})
}
