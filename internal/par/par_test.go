package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalize(t *testing.T) {
	if got := Normalize(5); got != 5 {
		t.Fatalf("Normalize(5) = %d", got)
	}
	if got := Normalize(0); got != Degree() {
		t.Fatalf("Normalize(0) = %d, want Degree()=%d", got, Degree())
	}
	if got := Normalize(-2); got != Degree() {
		t.Fatalf("Normalize(-2) = %d, want Degree()=%d", got, Degree())
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 8, 9, 100} {
			visits := make([]atomic.Int32, n)
			err := For(context.Background(), n, workers, func(i int) error {
				visits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForReturnsLowestIndexedError(t *testing.T) {
	errAt := func(bad ...int) error {
		isBad := map[int]bool{}
		for _, b := range bad {
			isBad[b] = true
		}
		return For(context.Background(), 100, 8, func(i int) error {
			if isBad[i] {
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
	}
	err := errAt(71, 13, 42)
	if err == nil || err.Error() != "fail@13" {
		t.Fatalf("got %v, want fail@13", err)
	}
	if err := errAt(); err != nil {
		t.Fatalf("no bad indices: %v", err)
	}
}

// TestForStopsAfterAFailure pins that a failed iteration stops the loop: once
// index 0 has failed, no further chunk starts, so a long loop runs a handful
// of iterations rather than all of them.
func TestForStopsAfterAFailure(t *testing.T) {
	const n = 2000
	var ran atomic.Int32
	failing := make(chan struct{})
	err := For(context.Background(), n, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			close(failing)
			return errors.New("fail@0")
		}
		select {
		case <-failing:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("index %d ran for 5 s before index 0", i)
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if err == nil || err.Error() != "fail@0" {
		t.Fatalf("got %v, want fail@0", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("%d of %d iterations ran after index 0 failed", got, n)
	}
}

func TestForHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := For(ctx, 10_000, 4, func(i int) error {
		if ran.Add(1) == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Fatal("cancellation did not stop the loop early")
	}
}

func TestForSerialHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := For(ctx, 10_000, 1, func(i int) error {
		if ran.Add(1) == 50 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Fatal("serial loop ignored cancellation")
	}
}

func TestForEmptyIgnoresContextState(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := For(ctx, 0, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("For(n=0) on cancelled ctx = %v, want nil", err)
	}
}

// TestForSpreadsShortVectors pins that a vector shorter than workers×8 — a
// packed HE vector of a few ciphertexts — runs on several workers: two of
// the three iterations must be in flight at once. Capping the workers at
// ⌈n/8⌉ would run the loop on one goroutine and leave the barrier waiting.
func TestForSpreadsShortVectors(t *testing.T) {
	var arrived atomic.Int32
	both := make(chan struct{})
	err := For(context.Background(), 3, 2, func(i int) error {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("iteration %d ran alone for 5 s: the short vector was not spread over two workers", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForLongVectorKeepsChunksOfEight pins that vectors with at least eight
// items per worker are dispatched exactly as before: with n=20 on two
// workers, while the holder of index 0 waits, the other worker runs the
// remaining chunks [8,16) and [16,20) — and nothing of [1,8).
func TestForLongVectorKeepsChunksOfEight(t *testing.T) {
	const n = 20
	var done [n]atomic.Bool
	last := make(chan struct{})
	err := For(context.Background(), n, 2, func(i int) error {
		switch i {
		case 0:
			select {
			case <-last:
			case <-time.After(5 * time.Second):
				return errors.New("index 19 never ran while index 0 was held")
			}
			for j := range done {
				if got, want := done[j].Load(), j >= 8; got != want {
					return fmt.Errorf("index %d done=%v while the first chunk was held, want %v (chunks of 8)", j, got, want)
				}
			}
		case n - 1:
			defer close(last)
		}
		done[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForShortVectorHonorsContextCancellation pins that spreading a short
// vector keeps the per-chunk ctx poll: a context cancelled before the loop
// runs nothing, and one cancelled mid-loop surfaces as the loop's error with
// every index run at most once.
func TestForShortVectorHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := For(ctx, 6, 2, func(int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("pre-cancelled: err %v after %d iterations, want context.Canceled after 0", err, ran.Load())
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	visits := make([]atomic.Int32, 6)
	err = For(ctx, 6, 2, func(i int) error {
		if visits[i].Add(1) == 1 && i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-loop: got %v, want context.Canceled", err)
	}
	for i := range visits {
		if c := visits[i].Load(); c > 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}
