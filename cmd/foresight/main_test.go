package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"foresight/internal/server"
)

func TestLoadData(t *testing.T) {
	for _, name := range []string{"oecd", "parkinson", "imdb", "OECD"} {
		f, err := server.LoadData(name, 1)
		if err != nil || f.Rows() == 0 {
			t.Errorf("LoadData(%s): %v", name, err)
		}
	}
	if _, err := server.LoadData("", 1); err == nil {
		t.Error("empty -data should fail")
	}
	if _, err := server.LoadData("/no/such/file.csv", 1); err == nil {
		t.Error("missing file should fail")
	}
	// CSV path.
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,x\n2,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := server.LoadData(path, 1)
	if err != nil || f.Rows() != 2 {
		t.Errorf("LoadData(csv): %v", err)
	}
}

func TestRunInfoAndQuery(t *testing.T) {
	if err := runInfo([]string{"-data", "oecd"}); err != nil {
		t.Errorf("runInfo: %v", err)
	}
	if err := runQuery([]string{"-data", "oecd", "-class", "linear", "-k", "3"}); err != nil {
		t.Errorf("runQuery: %v", err)
	}
	if err := runQuery([]string{"-data", "oecd", "-class", "linear",
		"-fix", "TimeDevotedToLeisure", "-min", "0.2", "-max", "0.9"}); err != nil {
		t.Errorf("runQuery with filters: %v", err)
	}
	if err := runQuery([]string{"-data", "oecd", "-class", "bogus"}); err == nil {
		t.Error("bogus class should fail")
	}
}

func TestRunOverviewAndRender(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "fig2.svg")
	if err := runOverview([]string{"-data", "oecd", "-svg", svg}); err != nil {
		t.Fatalf("runOverview: %v", err)
	}
	data, err := os.ReadFile(svg)
	if err != nil || !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("overview SVG not written: %v", err)
	}
	out := filepath.Join(dir, "skew.svg")
	if err := runRender([]string{"-data", "oecd", "-class", "skew",
		"-attrs", "SelfReportedHealth", "-svg", out}); err != nil {
		t.Fatalf("runRender: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Error("render SVG not written")
	}
	if err := runRender([]string{"-data", "oecd"}); err == nil {
		t.Error("render without class/attrs should fail")
	}
	if err := runRender([]string{"-data", "oecd", "-class", "nope", "-attrs", "x"}); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestRunDemoProfileReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "oecd.csv")
	if err := runDemo([]string{"-name", "oecd", "-out", csv}); err != nil {
		t.Fatalf("runDemo: %v", err)
	}
	if fi, err := os.Stat(csv); err != nil || fi.Size() == 0 {
		t.Fatal("demo CSV not written")
	}
	if err := runDemo([]string{"-name", "wat"}); err == nil {
		t.Error("unknown demo should fail")
	}

	prof := filepath.Join(dir, "oecd.profile")
	if err := runProfile([]string{"-data", csv, "-out", prof, "-k", "32", "-shards", "2"}); err != nil {
		t.Fatalf("runProfile: %v", err)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatal("profile not written")
	}
	if err := runProfile([]string{"-data", csv}); err == nil {
		t.Error("profile without -out should fail")
	}

	// Query against the saved profile.
	if err := runQuery([]string{"-data", csv, "-profile", prof, "-class", "linear", "-k", "3"}); err != nil {
		t.Fatalf("runQuery with profile: %v", err)
	}

	report := filepath.Join(dir, "report.html")
	if err := runReport([]string{"-data", csv, "-out", report, "-k", "2"}); err != nil {
		t.Fatalf("runReport: %v", err)
	}
	data, err := os.ReadFile(report)
	if err != nil || !strings.Contains(string(data), "<!DOCTYPE html>") {
		t.Error("report not written")
	}
}

func TestRunSelfcheck(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "oecd.csv")
	if err := runDemo([]string{"-name", "oecd", "-out", csv}); err != nil {
		t.Fatalf("runDemo: %v", err)
	}
	if err := runSelfcheck([]string{"-data", csv, "-shards", "2"}); err != nil {
		t.Fatalf("selfcheck on demo data: %v", err)
	}
	// Verify a persisted store, then verify it against the WRONG data
	// — that must fail, or the subcommand guards nothing.
	prof := filepath.Join(dir, "oecd.profile")
	if err := runProfile([]string{"-data", csv, "-out", prof}); err != nil {
		t.Fatalf("runProfile: %v", err)
	}
	if err := runSelfcheck([]string{"-data", csv, "-profile", prof}); err != nil {
		t.Fatalf("selfcheck -profile: %v", err)
	}
	if err := runSelfcheck([]string{"-data", "imdb", "-profile", prof}); err == nil {
		t.Error("selfcheck accepted a profile of different data")
	}
	if err := runSelfcheck([]string{}); err == nil {
		t.Error("selfcheck without -data should fail")
	}
}

func TestIndentHelper(t *testing.T) {
	if got := indent("a\nb\n", "> "); got != "> a\n> b" {
		t.Errorf("indent = %q", got)
	}
}
