package fanout

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 64
	var ran [n]atomic.Int32
	if err := Each(context.Background(), n, func(_ context.Context, i int) error {
		ran[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

// One task fails: Each returns that task's error — not the cancellation its
// siblings report afterwards — whether the failing task is launched first or
// last, and every sibling sees its context cancelled.
func TestEachFirstFailureCancelsSiblings(t *testing.T) {
	const n = 8
	boom := errors.New("boom")
	for _, failing := range []int{0, n - 1} {
		var waiting, cancelled atomic.Int32
		ready := make(chan struct{})
		err := Each(context.Background(), n, func(ctx context.Context, i int) error {
			if i == failing {
				<-ready // fail only once every sibling is provably waiting
				return boom
			}
			if waiting.Add(1) == n-1 {
				close(ready)
			}
			<-ctx.Done()
			cancelled.Add(1)
			return ctx.Err()
		})
		if err != boom {
			t.Fatalf("failing=%d: Each = %v, want the failing task's error", failing, err)
		}
		if got := cancelled.Load(); got != n-1 {
			t.Fatalf("failing=%d: %d of %d siblings observed cancellation", failing, got, n-1)
		}
	}
}

func TestEachParentAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Each(ctx, 4, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("Each on a done context = %v with %d task bodies run", err, ran.Load())
	}
}

// A panicking task fails the fan-out with an error naming its index; the
// process, and the siblings' chance to observe the cancellation, survive.
func TestEachPanicBecomesError(t *testing.T) {
	var released atomic.Int32
	err := Each(context.Background(), 3, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("kaboom")
		}
		<-ctx.Done()
		released.Add(1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 1") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Each = %v, want an error naming task 1 and the panic value", err)
	}
	if released.Load() != 2 {
		t.Fatalf("%d of 2 siblings released", released.Load())
	}
}

func TestEachZeroTasks(t *testing.T) {
	fn := func(context.Context, int) error { panic("no task to run") }
	if err := Each(context.Background(), 0, fn); err != nil {
		t.Fatalf("Each(n=0) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Each(ctx, 0, fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("Each(n=0) on a done context = %v", err)
	}
}
