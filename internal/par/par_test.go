package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
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
