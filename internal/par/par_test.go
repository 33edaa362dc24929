package par

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachCoversOnce runs Each's dispatch under the race detector's
// eye: every index exactly once, whether there are fewer indexes than
// workers, as many, or far more.
func TestEachCoversOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 1000} {
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			seen := make([]int, n) // written by whichever goroutine claims i
			var calls atomic.Int64
			if err := Each(context.Background(), workers, n, func(i int) {
				seen[i]++
				calls.Add(1)
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if int(calls.Load()) != n {
				t.Errorf("n=%d workers=%d: %d calls", n, workers, calls.Load())
			}
			for i, times := range seen {
				if times != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, times)
				}
			}
		}
	}
}

// Each must stop claiming once ctx fires, inline and pooled alike.
func TestEachCancelStopsClaims(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int64
			var once sync.Once
			started := make(chan struct{})
			go func() {
				<-started
				cancel()
			}()
			err := Each(ctx, workers, 100, func(i int) {
				ran.Add(1)
				once.Do(func() { close(started) })
				<-ctx.Done() // pin the index until cancellation
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Every claim checks ctx first, so each goroutine runs at most
			// the one index it held when the cancel landed; the rest of the
			// 100 must never start.
			if n := ran.Load(); n > int64(workers) {
				t.Errorf("ran %d indices after cancellation, want ≤ %d", n, workers)
			}
		})
	}
}

// goroutineID reads the current goroutine's number off its stack
// header ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// explode is the panicking fn's frame the re-raised stack must keep.
func explode(share string) {
	panic(fmt.Sprintf("the %s's share exploded", share))
}

// A panic on the caller's share or on a worker's is re-raised on the
// caller only after every share has returned, with the original
// message and the panicking goroutine's stack.
func TestEachPanicWaitsForEveryShare(t *testing.T) {
	for _, share := range []string{"caller", "worker"} {
		t.Run(share, func(t *testing.T) {
			const workers = 4
			caller := goroutineID()
			fired := make(chan struct{})
			var picked atomic.Bool
			var running atomic.Int64
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = Each(context.Background(), workers, 1000, func(i int) {
					running.Add(1)
					defer running.Add(-1)
					id := goroutineID()
					if share == "caller" && id == caller || share == "worker" && id != caller && picked.CompareAndSwap(false, true) {
						// Panic once every share holds an index.
						for deadline := time.Now().Add(5 * time.Second); running.Load() < workers && time.Now().Before(deadline); {
							time.Sleep(time.Millisecond)
						}
						close(fired)
						explode(share)
					}
					select {
					case <-fired:
					case <-time.After(5 * time.Second):
					}
					// The worker shares hold their index past the panic, so a
					// re-raise that did not wait for them would be seen below.
					if id != caller {
						time.Sleep(20 * time.Millisecond)
					}
				})
				return nil
			}()
			if got == nil {
				t.Fatal("the panic did not reach the caller")
			}
			if n := running.Load(); n != 0 {
				t.Errorf("re-raised with %d shares still running", n)
			}
			msg := fmt.Sprint(got)
			if !strings.Contains(msg, fmt.Sprintf("the %s's share exploded", share)) {
				t.Errorf("panic value lost the original message:\n%s", msg)
			}
			if !strings.Contains(msg, "par.explode(") {
				t.Errorf("panic value lost the panicking stack:\n%s", msg)
			}
		})
	}
}
