package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSharedBudget runs several concurrent pooled forEach calls on one
// small pool and asserts the observed simulation concurrency never exceeds
// the pool's slot count — the invariant the daemon's shared engine pool
// depends on.
func TestPoolSharedBudget(t *testing.T) {
	const workers = 3
	pool := NewPool(workers)
	if pool.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", pool.Workers(), workers)
	}
	var inFlight, maxSeen atomic.Int64
	fn := func(i int) {
		cur := inFlight.Add(1)
		for {
			prev := maxSeen.Load()
			if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	}
	var wg sync.WaitGroup
	for call := 0; call < 4; call++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := forEach(context.Background(), pool, 10, 0, fn); err != nil {
				t.Errorf("forEach: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, pool budget is %d", got, workers)
	}
}

// TestPoolPanicIsolation pins that a persistently panicking index in one
// pooled call surfaces as that call's *PanicError while a sibling call on
// the same pool completes every index untouched.
func TestPoolPanicIsolation(t *testing.T) {
	pool := NewPool(2)
	var wg sync.WaitGroup
	var badErr error
	var goodErr error
	var goodRan atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		badErr = forEach(context.Background(), pool, 5, 0, func(i int) {
			if i == 3 {
				panic("poisoned index")
			}
		})
	}()
	go func() {
		defer wg.Done()
		goodErr = forEach(context.Background(), pool, 20, 0, func(i int) {
			time.Sleep(100 * time.Microsecond)
			goodRan.Add(1)
		})
	}()
	wg.Wait()
	var pe *PanicError
	if !errors.As(badErr, &pe) {
		t.Fatalf("poisoned call returned %v, want *PanicError", badErr)
	}
	if pe.Index != 3 || pe.Attempts != panicAttempts {
		t.Fatalf("PanicError = index %d after %d attempts, want index 3 after %d", pe.Index, pe.Attempts, panicAttempts)
	}
	if goodErr != nil {
		t.Fatalf("sibling call failed: %v", goodErr)
	}
	if got := goodRan.Load(); got != 20 {
		t.Fatalf("sibling call ran %d/20 indices", got)
	}
}

// TestPoolCancellationSkipsCleanly pins that cancelling a pooled call while
// its workers wait for slots reports the context error instead of a silent
// partial pass.
func TestPoolCancellationSkipsCleanly(t *testing.T) {
	pool := NewPool(1)
	release := make(chan struct{})
	holding := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupy the only slot until released.
		_ = forEach(context.Background(), pool, 1, 1, func(int) {
			close(holding)
			<-release
		})
	}()
	<-holding
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- forEach(ctx, pool, 4, 2, func(int) {})
	}()
	time.Sleep(10 * time.Millisecond) // let the waiters block on the pool
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pooled call returned %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

// TestRunCtxOnPoolMatchesUnpooled pins that Config.Pool changes scheduling
// only: the merged metrics of a pooled replicated run are bit-identical to
// the un-pooled run of the same config.
func TestRunCtxOnPoolMatchesUnpooled(t *testing.T) {
	task := scalar(func(rep int, seed uint64) map[string]float64 {
		return map[string]float64{"x": float64(seed%1000) / 7}
	})
	base := Config{Replications: 64, BaseSeed: 42}
	want := run(t, base, task)
	pooled := base
	pooled.Pool = NewPool(2)
	got := run(t, pooled, task)
	for k, wt := range want.Metrics {
		gt, ok := got.Metrics[k]
		if !ok {
			t.Fatalf("pooled run missing metric %q", k)
		}
		if gt.Mean() != wt.Mean() || gt.Count() != wt.Count() || gt.StdDev() != wt.StdDev() {
			t.Fatalf("pooled metric %q differs: mean %v vs %v", k, gt.Mean(), wt.Mean())
		}
	}
}
