package server

import (
	"runtime"
	"testing"
)

// TestRuntimeStatsMatchMemStats holds the runtime/metrics reading to
// the MemStats fields it replaces, right after a GC so the two reads
// see the same heap: the counters agree exactly or to within what a
// few cached spans allocate between the reads.
func TestRuntimeStatsMatchMemStats(t *testing.T) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st := readRuntimeStats()
	if st.NumGC != uint64(m.NumGC) {
		t.Errorf("num_gc %d, MemStats %d", st.NumGC, m.NumGC)
	}
	near := func(name string, got, want uint64) {
		const slack = 4 << 20
		if got+slack < want || got > want+slack {
			t.Errorf("%s %d, MemStats %d", name, got, want)
		}
	}
	near("heap_alloc", st.HeapAlloc, m.HeapAlloc)
	near("heap_sys", st.HeapSys, m.HeapSys)
	near("total_alloc", st.TotalAlloc, m.TotalAlloc)
	if st.GCPauseTotal <= 0 {
		t.Errorf("gc_pause_total %v after a GC", st.GCPauseTotal)
	}
	if allocs := testing.AllocsPerRun(10, func() { readRuntimeStats() }); allocs != 0 {
		t.Errorf("a read allocates %v times", allocs)
	}
}
