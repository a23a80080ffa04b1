// Package fanout runs independent tasks side by side under one error rule. It
// is the one fan-out above the leaf operations: the phases of a study, the
// kernels of a study set, the experiments of a report and the arms of a sweep
// all run on Each, so "what happens when one of N fails" is decided here once.
package fanout

import (
	"context"
	"fmt"
	"sync"
)

// Each runs fn(ctx, i) for every i in [0, n), each on its own goroutine, and
// returns when all have returned. The first failure in time cancels the
// context the other tasks see and is the error Each returns, so a sibling that
// parks or gives up because of that cancellation can never mask the cause. A
// task that panics fails with an error naming its index instead of ending the
// process. When ctx is already done no task runs and its error is returned;
// n == 0 returns ctx.Err().
//
// There is no limit parameter: tasks bound their own concurrency by what they
// acquire (a simulation slot inside every leaf operation, admission units per
// job), and nothing else does.
func Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil || n == 0 {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if err := guarded(ctx, i, fn); err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	return first
}

// guarded runs one task, turning a panic into that task's error.
func guarded(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fanout: task %d panicked: %v", i, r)
		}
	}()
	return fn(ctx, i)
}
