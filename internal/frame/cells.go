package frame

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// cells is the storage of one column's rows: a contiguous prefix, then
// the rows appended since, in tail chunks. Every array in it is
// append-only — a cell below a column's Len never changes, and no
// reader of the column looks past it — so the successor columns an
// append makes share the arrays and write only above the rows their
// predecessor holds.
type cells[T any] struct {
	// prefix holds rows [0, len(prefix)). With no chunks its spare
	// capacity is the column's tail; with chunks it has none.
	prefix []T
	// chunks hold rows [len(prefix), n), by ascending start. The
	// directory's spare entries and the last chunk's spare cells
	// belong to whoever claims tail.
	chunks []chunk[T]
	n      int
	// tail is the one claim on what lies past row n: the spare
	// capacity after it (of the prefix, of the last chunk and of the
	// chunk directory, or of the fold), which goes to at most one
	// successor, the first to claim it. A second append from the same
	// column writes a chunk of its own instead.
	tail atomic.Bool

	// whole is the fold: rows [0, n) contiguous, built by the first
	// whole-column reader of a column with chunks (see all), in an array
	// with room for a quarter more, which the column's successor takes.
	foldOnce sync.Once
	whole    atomic.Pointer[[]T]
}

// chunk is one tail chunk: cells holds rows from start on, as many as
// the column reading it has up to the next chunk's start (or its Len).
// len(cells) is the chunk's capacity; rows past a column's Len are
// another column's or nobody's.
type chunk[T any] struct {
	start int
	cells []T
}

// Chunk sizes: a new chunk holds the batch that opens it, and at least
// half as many rows as the tail already has, between minChunk and
// maxChunk — so the tail grows by half at a time, and a stream of small
// batches allocates a fifth more than its rows, then, once the tail is
// long, little more than its rows.
const (
	minChunk = 256
	maxChunk = 4096
)

// newCells returns the storage of rows, retained as the prefix; its
// spare capacity is left alone.
func newCells[T any](rows []T) cells[T] {
	return cells[T]{prefix: rows[:len(rows):len(rows)], n: len(rows)}
}

// at returns row i, from the prefix or the chunk holding it.
func (c *cells[T]) at(i int) T {
	if i < len(c.prefix) {
		return c.prefix[i]
	}
	if i >= c.n {
		panic(fmt.Sprintf("frame: row %d out of range [0,%d)", i, c.n))
	}
	ch := c.chunks[c.chunkOf(i)]
	return ch.cells[i-ch.start]
}

// chunkOf returns the index of the chunk holding row i ≥ len(prefix).
func (c *cells[T]) chunkOf(i int) int {
	lo, hi := 0, len(c.chunks)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.chunks[mid].start <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// end returns the row after the last one chunk k holds for this column.
func (c *cells[T]) end(k int) int {
	if k+1 < len(c.chunks) {
		return c.chunks[k+1].start
	}
	return c.n
}

// all returns rows [0, n) contiguous, capacity n. A column with no
// chunks hands out its prefix; the first call on one with chunks folds
// them behind the prefix in a new array (once, for every reader), which
// later calls return.
func (c *cells[T]) all() []T {
	if len(c.chunks) == 0 {
		return c.prefix[:c.n:c.n]
	}
	c.foldOnce.Do(func() {
		w := c.appendRange(make([]T, 0, c.n+c.n/4), 0, c.n)
		c.whole.Store(&w)
	})
	return (*c.whole.Load())[:c.n:c.n]
}

// window returns rows [start, end), capacity end−start: zero-copy when
// one segment (the prefix or a chunk) holds them, else a window of the
// fold, which it builds on first need.
func (c *cells[T]) window(start, end int) []T {
	if start < 0 || start > end || end > c.n {
		panic(fmt.Sprintf("frame: rows [%d,%d) out of range [0,%d)", start, end, c.n))
	}
	if end <= len(c.prefix) {
		return c.prefix[start:end:end]
	}
	if start >= len(c.prefix) {
		k := c.chunkOf(start)
		if end <= c.end(k) {
			ch := c.chunks[k]
			return ch.cells[start-ch.start : end-ch.start : end-ch.start]
		}
	}
	return c.all()[start:end:end]
}

// appendRange appends rows [start, end) to dst, segment by segment; it
// never folds.
func (c *cells[T]) appendRange(dst []T, start, end int) []T {
	if start < len(c.prefix) {
		dst = append(dst, c.prefix[start:min(end, len(c.prefix))]...)
		start = len(c.prefix)
	}
	for k := range c.chunks {
		lo, hi := max(start, c.chunks[k].start), min(end, c.end(k))
		if lo < hi {
			ch := c.chunks[k]
			dst = append(dst, ch.cells[lo-ch.start:hi-ch.start]...)
		}
	}
	return dst
}

// extendInto makes next the storage of c's rows and k more, and
// returns the k cells the caller writes them into (one segment) and
// whether next took c's tail. It never copies c's rows: with the claim,
// the batch goes into the spare capacity after row n when it fits
// there — of the fold if c has one, else of the prefix or the last
// chunk — or else into a new chunk, entered in the directory's spare
// entries when it has some; without the claim (a second append from c)
// it goes into a new chunk behind a copy of the directory. A chunk
// holds its batch whole, so a batch is always one window.
func (c *cells[T]) extendInto(next *cells[T], k int) (dst []T, owner bool) {
	n := c.n
	next.n = n + k
	owner = c.tail.CompareAndSwap(false, true)
	prefix, chunks := c.prefix, c.chunks
	if w := c.whole.Load(); w != nil {
		prefix, chunks = *w, nil
	}
	if len(chunks) == 0 {
		if owner && cap(prefix)-n >= k {
			next.prefix = prefix[:n+k]
			return next.prefix[n:], owner
		}
		prefix = prefix[:n:n]
	} else if last := chunks[len(chunks)-1]; owner && len(last.cells)-(n-last.start) >= k {
		next.prefix, next.chunks = prefix, chunks
		return last.cells[n-last.start : n-last.start+k], owner
	}
	size := max(k, min(maxChunk, max(minChunk, (n-len(prefix))/2)))
	ch := chunk[T]{start: n, cells: make([]T, size)}
	if !owner {
		chunks = chunks[:len(chunks):len(chunks)]
	}
	next.prefix, next.chunks = prefix, append(chunks, ch)
	return ch.cells[:k], owner
}
