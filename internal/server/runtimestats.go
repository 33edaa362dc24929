package server

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// runtimeStats is the Go runtime's part of /api/stats and of the
// go_heap_alloc_bytes gauge, under MemStats' names. It is read from
// runtime/metrics rather than runtime.ReadMemStats, which stops the
// world: /api/stats is polled while the server is under load (the
// repository benchmark reads it four times a second). HeapSys sums the
// heap classes (objects, unused, free, released), which like MemStats'
// leaves out stack spans. GCPauseTotal is summed from the pause
// histogram at each bucket's midpoint, so unlike MemStats.PauseTotalNs
// it is approximate, to the bucket width.
type runtimeStats struct {
	HeapAlloc, HeapSys, TotalAlloc, NumGC uint64
	GCPauseTotal                          time.Duration
}

// runtimeSamples is the one sample slice every read fills: Read reuses
// its values, histogram included, so a read does not allocate.
var (
	runtimeMu      sync.Mutex
	runtimeSamples = []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
)

func readRuntimeStats() runtimeStats {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	metrics.Read(runtimeSamples)
	u := func(i int) uint64 {
		if runtimeSamples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return runtimeSamples[i].Value.Uint64()
	}
	st := runtimeStats{
		HeapAlloc:  u(0),
		HeapSys:    u(0) + u(1) + u(2) + u(3),
		TotalAlloc: u(4),
		NumGC:      u(5),
	}
	if v := runtimeSamples[6].Value; v.Kind() == metrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		var sec float64
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			sec += float64(n) * (lo + hi) / 2
		}
		st.GCPauseTotal = time.Duration(sec * float64(time.Second))
	}
	return st
}
