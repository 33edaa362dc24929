package sketch

import (
	"sync"
	"sync/atomic"
	"time"
)

// The sample arrays of the store — the row sample's indexes and each
// column's gather at them — change in a handful of slots per ingest
// batch, and most of the generations a stream of batches makes are
// never read. So an extension records the slots it writes to the row
// sample instead of copying the array to write them, records nothing
// for a gather (it is the column at the row sample's indexes), and
// each array is built once, by its first reader.

// slotWrite is one recorded write of a slotted array: v at index slot.
type slotWrite[T any] struct {
	slot int
	v    T
}

// slotWrites is an unbuilt array: its length, a built base shared
// read-only with every array made from it, and the writes made since,
// in order. The write list is append-only; its spare capacity goes to
// the first successor that claims it, so a chain of extensions shares
// one list the way a chain of frame appends shares a column's tail.
type slotWrites[T any] struct {
	n       int
	base    []T
	writes  []slotWrite[T]
	claimed atomic.Bool
}

// slotted is an array held as a built base plus the slot writes made
// since (pending), or as the built array. get builds it once and drops
// the pending state; a successor (extended) never touches its receiver.
// The nil *slotted is the empty array.
type slotted[T any] struct {
	once    sync.Once
	pending atomic.Pointer[slotWrites[T]]
	built   []T
}

// builtSlots returns the slotted array that is arr, which it retains.
func builtSlots[T any](arr []T) *slotted[T] { return &slotted[T]{built: arr} }

// get returns the array, building it on the first call; safe for
// concurrent use. The result is shared and read-only.
func (s *slotted[T]) get() []T {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		p := s.pending.Load()
		if p == nil {
			return
		}
		start := time.Now()
		out := make([]T, p.n)
		copy(out, p.base)
		for _, w := range p.writes {
			out[w.slot] = w.v
		}
		s.built = out
		s.pending.Store(nil)
		observeSince("sample.build", start)
	})
	return s.built
}

// len returns the array's length without building it.
func (s *slotted[T]) len() int {
	if s == nil {
		return 0
	}
	if p := s.pending.Load(); p != nil {
		return p.n
	}
	return len(s.built)
}

// extended returns the array s becomes at length n ≥ s.len() when ws
// are written in order; ws is copied, and s is not modified (it is the
// result when ws is empty: only writes lengthen an array, as a sample
// fills). A built receiver is the successor's base; an unbuilt one
// lends its base and its write list. Past len(base)/4 writes the
// successor is built at once, which bounds what a chain nobody reads
// holds.
func (s *slotted[T]) extended(n int, ws []slotWrite[T]) *slotted[T] {
	if len(ws) == 0 {
		return s
	}
	var p *slotWrites[T]
	if s != nil {
		p = s.pending.Load()
	}
	next := &slotWrites[T]{n: n}
	if p != nil {
		next.base = p.base
		next.writes = claimWrites(p.writes, &p.claimed, len(ws))
	} else {
		// Sized exactly: a chain's second extension makes room.
		next.base = s.get()
		next.writes = make([]slotWrite[T], len(ws))
	}
	copy(next.writes[len(next.writes)-len(ws):], ws)
	out := &slotted[T]{}
	out.pending.Store(next)
	if len(next.writes) > len(next.base)/4 {
		out.get()
	}
	return out
}

// claimWrites returns ws lengthened by extra writes, to be filled: in
// place when ws has the room and no successor claimed it before (the
// rule of the frame's tail claim, frame.cells.tail), else in a copy
// with as much room again.
func claimWrites[T any](ws []slotWrite[T], claimed *atomic.Bool, extra int) []slotWrite[T] {
	n := len(ws)
	if cap(ws)-n >= extra && claimed.CompareAndSwap(false, true) {
		return ws[:n+extra]
	}
	out := make([]slotWrite[T], n+extra, 2*(n+extra))
	copy(out, ws)
	return out
}

// gathered is a column's cells at the row sample's indexes (a column
// of DatasetProfile.Sample). A build or a load holds it built;
// an extension holds the row sample and the column's cell reader
// instead, and get gathers it once, for the first reader. The nil
// *gathered is the empty array.
type gathered[T any] struct {
	once  sync.Once
	rows  *RowSample
	at    func(int) T
	built []T
}

// builtGather returns the gather that is arr, which it retains.
func builtGather[T any](arr []T) *gathered[T] { return &gathered[T]{built: arr} }

// gatherAt returns the cells at(i) of a column at the indexes of rows,
// gathered by its first reader row by row — a column's At or CodeAt,
// which reads its tail chunks where they are rather than folding them.
// at must read every row rows indexes and never change.
func gatherAt[T any](rows *RowSample, at func(int) T) *gathered[T] {
	return &gathered[T]{rows: rows, at: at}
}

// get returns the array, gathering it on the first call; safe for
// concurrent use. The result is shared and read-only.
func (g *gathered[T]) get() []T {
	if g == nil {
		return nil
	}
	g.once.Do(func() {
		if g.rows == nil {
			return
		}
		start := time.Now()
		idx := g.rows.Indexes()
		g.built = make([]T, len(idx))
		for k, i := range idx {
			g.built[k] = g.at(i)
		}
		g.rows, g.at = nil, nil
		observeSince("sample.build", start)
	})
	return g.built
}
