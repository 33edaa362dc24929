package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
)

// mergeFresh is DatasetProfile.Merge with each quantile sketch cloned
// and merged in place, on arrays of its own, as before the merge ran on
// scratch levels: the oracles' merge, which shares no scratch with the
// code under test.
func mergeFresh(p, other *DatasetProfile) error {
	fresh := make(map[string]*KLL, len(p.Numeric))
	for name, np := range p.Numeric {
		q := np.Quantiles.Clone()
		if onp, ok := other.Numeric[name]; ok {
			if err := q.Merge(onp.Quantiles); err != nil {
				return err
			}
		}
		fresh[name] = q
	}
	if err := p.Merge(other); err != nil {
		return err
	}
	for name, q := range fresh {
		p.Numeric[name].Quantiles = q
	}
	return nil
}

// kllState is everything a KLL holds, its levels as bits.
type kllState struct {
	K, Size, MaxSize int
	N                uint64
	Seed             int64
	Levels           [][]uint64
}

func stateOf(s *KLL) kllState {
	st := kllState{K: s.k, Size: s.size, MaxSize: s.maxSize, N: s.n, Seed: s.seed}
	for _, level := range s.compactors {
		bits := make([]uint64, len(level))
		for i, v := range level {
			bits[i] = math.Float64bits(v)
		}
		st.Levels = append(st.Levels, bits)
	}
	return st
}

// TestKLLMergedMatchesCloneMerge: merged is Clone followed by Merge —
// the same k, count, size and budget, and level by level the same bits
// — on random pairs of sketches of random sizes and capacities, the
// merged side sometimes built from a stream long enough to reach levels
// the receiver lacks, with the scratch levels poisoned between merges;
// and the receiver is left as it was.
func TestKLLMergedMatchesCloneMerge(t *testing.T) {
	poisonScratch.Store(true)
	defer poisonScratch.Store(false)
	rng := rand.New(rand.NewSource(11))
	fillN := func(s *KLL, n int) *KLL {
		for range n {
			s.Update(math.Round(rng.NormFloat64()*float64(1+rng.Intn(50))) / 4)
		}
		return s
	}
	fill := func(s *KLL) *KLL { return fillN(s, rng.Intn([]int{10, 300, 5000}[rng.Intn(3)])) }
	ks := []int{8, 20, 64, 200}
	for trial := range 400 {
		s := fill(NewKLL(ks[rng.Intn(len(ks))], rng.Int63()))
		o := NewKLL(ks[rng.Intn(len(ks))], rng.Int63())
		if rng.Intn(4) == 0 {
			fillN(o, 5000+rng.Intn(25000))
		} else {
			fill(o)
		}
		before := stateOf(s)
		got := s.merged(o)
		want := s.Clone()
		if err := want.Merge(o); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stateOf(got), stateOf(want)) {
			t.Fatalf("trial %d: merged differs from Clone+Merge:\n got %+v\nwant %+v", trial, stateOf(got), stateOf(want))
		}
		if !reflect.DeepEqual(stateOf(s), before) {
			t.Fatalf("trial %d: merged changed its receiver", trial)
		}
	}
}

// scratchChain is one configuration of the poisoned-scratch chains: a
// source frame, a base of its first rows, and the profile's config.
type scratchChain struct {
	name string
	src  *frame.Frame
	base int
	cfg  ProfileConfig
}

// TestExtendPoisonedScratchMatchesFresh: with every scratch array
// overwritten by garbage as it is given back, random ingest chains —
// batches of 1 to 3 000 rows, one over 1 024, onto bases of 700 to
// 3 000 rows, a sibling now and then, a frame with gaps
// and one wide enough for the projection's column chunks, on 1 and 2
// workers — save at every generation to the bytes of the copying
// oracle, whose delta and quantile merges are allocated afresh. So no
// generation keeps a pointer into scratch, and no Extend reads what an
// earlier one left there.
func TestExtendPoisonedScratchMatchesFresh(t *testing.T) {
	poisonScratch.Store(true)
	defer poisonScratch.Store(false)
	const steps = 8
	wide := datagen.Scalable(datagen.ScalableConfig{Rows: 3000 + steps*3000, NumericCols: 40, CatCols: 3, Seed: 9})
	gappy := gappyFrame(3000+steps*3000, 5)
	for c, tc := range []scratchChain{
		{"gappy/700", gappy, 700, ProfileConfig{Seed: 3, K: 32}},
		{"gappy/3000/workers=2", gappy, 3000, ProfileConfig{Seed: 4, K: 48, Workers: 2}},
		{"wide/2000/workers=2", wide, 2000, ProfileConfig{Seed: 5, Workers: 2}},
		{"wide/3000", wide, 3000, ProfileConfig{Seed: 6, K: 64}},
	} {
		rng := rand.New(rand.NewSource(int64(c) + 1))
		keep := make([]bool, tc.src.Rows())
		for i := range tc.base {
			keep[i] = true
		}
		f, err := tc.src.FilterRows(keep)
		if err != nil {
			t.Fatal(err)
		}
		live := BuildProfile(f, tc.cfg)
		oracle := BuildProfile(f, tc.cfg)
		big := rng.Intn(steps)
		for i, at := 0, tc.base; i < steps; i++ {
			rows := 1 + rng.Intn([]int{30, 300, 3000}[rng.Intn(3)])
			if i == big {
				rows = 1025 + rng.Intn(1976)
			}
			rows = min(rows, tc.src.Rows()-at)
			if rng.Intn(3) == 0 {
				sf, err := f.AppendRows(rowsOf(tc.src, at, at+1+rng.Intn(rows)), nil)
				if err != nil {
					t.Fatal(err)
				}
				sibling, err := live.Extend(sf)
				if err != nil {
					t.Fatal(err)
				}
				so, err := extendCopying(oracle, sf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saveBytes(t, sibling), saveBytes(t, so)) {
					t.Errorf("%s: sibling at step %d saves to other bytes than the fresh oracle", tc.name, i)
				}
			}
			if f, err = f.AppendRows(rowsOf(tc.src, at, at+rows), nil); err != nil {
				t.Fatal(err)
			}
			at += rows
			if live, err = live.Extend(f); err != nil {
				t.Fatal(err)
			}
			if oracle, err = extendCopying(oracle, f); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveBytes(t, live), saveBytes(t, oracle)) {
				t.Errorf("%s: generation %d (%d rows) saves to other bytes than the fresh oracle", tc.name, i+1, f.Rows())
			}
		}
	}
}

// TestExtendSiblingsConcurrently: eight goroutines extend one receiver
// by eight different batches at once, twice over, each on two workers
// and with scratch poisoned as it is given back; every result saves to
// the bytes the same Extend made alone. Sibling extensions never share
// scratch. CI runs it under -race at 1, 2 and 4 cores.
func TestExtendSiblingsConcurrently(t *testing.T) {
	const siblings, base = 8, 4000
	src := datagen.Scalable(datagen.ScalableConfig{Rows: base + siblings*400, NumericCols: 36, CatCols: 3, Seed: 13})
	keep := make([]bool, src.Rows())
	for i := range base {
		keep[i] = true
	}
	f, err := src.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	p := BuildProfile(f, ProfileConfig{Seed: 2, Workers: 2})
	frames := make([]*frame.Frame, siblings)
	want := make([][]byte, siblings)
	for i := range frames {
		from := base + i*400
		if frames[i], err = f.AppendRows(rowsOf(src, from, from+10+i*50), nil); err != nil {
			t.Fatal(err)
		}
		alone, err := p.Extend(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = saveBytes(t, alone)
	}
	poisonScratch.Store(true)
	defer poisonScratch.Store(false)
	for round := range 2 {
		errs := make([]error, siblings)
		var wg sync.WaitGroup
		for i := range frames {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := p.Extend(frames[i])
				if err != nil {
					errs[i] = err
					return
				}
				var buf bytes.Buffer
				if err := got.Save(&buf); err != nil {
					errs[i] = err
				} else if !bytes.Equal(buf.Bytes(), want[i]) {
					errs[i] = fmt.Errorf("saves to other bytes than when extended alone")
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("round %d, sibling %d (%d rows): %v", round, i, frames[i].Rows()-base, err)
			}
		}
	}
}
