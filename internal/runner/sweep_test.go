package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestSweepRunsEveryJobOnce: the pool must execute each job exactly once
// and land its result at the job's index, whatever the worker count.
func TestSweepRunsEveryJobOnce(t *testing.T) {
	const jobs = 137
	for _, workers := range []int{1, 3, 8} {
		var calls atomic.Int64
		results, _, err := Sweep(context.Background(), workers, jobs,
			func(_ context.Context, _, job int) (int, error) {
				calls.Add(1)
				return job * job, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls.Load() != jobs {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), jobs)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

// TestSweepPropagatesFirstError: a failing job must surface its error and
// stop the sweep early instead of grinding through the remaining jobs.
func TestSweepPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, _, err := Sweep(context.Background(), 4, 10_000,
		func(_ context.Context, _, job int) (struct{}, error) {
			calls.Add(1)
			if job == 5 {
				return struct{}{}, boom
			}
			return struct{}{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls.Load() == 10_000 {
		t.Fatal("sweep ran every job despite the error — cancellation is broken")
	}
}

// TestSweepHonorsContext: cancelling the parent context aborts the sweep.
func TestSweepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Sweep(ctx, 2, 100,
		func(ctx context.Context, _, _ int) (struct{}, error) {
			return struct{}{}, ctx.Err()
		})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
}

// TestSweepParallelMatchesSequential: the parallel exhaustive sweep must
// find exactly the violation set of the sequential one — same count, same
// schedule indices, same first violation — on the baseline whose schedules
// do violate. Run under -race, this is also the engine's isolation check:
// jobs share nothing but the counter and the result slice.
func TestSweepParallelMatchesSequential(t *testing.T) {
	ctx := testCtx(t)
	seq, err := RunExhaustive(ctx, KindNaive, ExhaustOptions{F: 1, Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if seq.Violations == 0 {
		t.Fatal("sequential sweep found no violations — the parity check is vacuous")
	}
	par, err := RunExhaustive(ctx, KindNaive, ExhaustOptions{F: 1, Workers: 8})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq.Violations != par.Violations {
		t.Fatalf("violations: sequential %d, parallel %d", seq.Violations, par.Violations)
	}
	if !reflect.DeepEqual(seq.ViolationIndices, par.ViolationIndices) {
		t.Fatalf("violation sets differ:\nsequential: %v\nparallel:   %v",
			seq.ViolationIndices, par.ViolationIndices)
	}
	if seq.FirstViolation != par.FirstViolation {
		t.Fatalf("first violation: sequential {%s}, parallel {%s}", seq.FirstViolation, par.FirstViolation)
	}
}

// TestSweepWorkerIndexBounded: worker indices passed to jobs stay within
// the resolved pool size, so per-worker state arrays are safe.
func TestSweepWorkerIndexBounded(t *testing.T) {
	const workers, jobs = 5, 50
	var bad atomic.Int64
	_, _, err := Sweep(context.Background(), workers, jobs,
		func(_ context.Context, worker, _ int) (struct{}, error) {
			if worker < 0 || worker >= workers {
				bad.Add(1)
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d jobs saw an out-of-range worker index", bad.Load())
	}
}

// TestDefaultWorkers pins the option semantics: non-positive means one per
// CPU, positive passes through.
func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(0); got < 1 {
		t.Fatalf("DefaultWorkers(0) = %d, want >= 1", got)
	}
	for _, w := range []int{1, 4, 9} {
		if got := DefaultWorkers(w); got != w {
			t.Fatalf("DefaultWorkers(%d) = %d", w, got)
		}
	}
}

// Example-shaped smoke test: the report fields used by cmd/sweep -json stay
// populated.
func TestExhaustReportFields(t *testing.T) {
	rep, err := RunExhaustive(testCtx(t), KindRegEmu, ExhaustOptions{F: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 2 || rep.F != 1 || rep.N != 3 || rep.Schedules != 208 || rep.Elapsed <= 0 {
		t.Fatalf("report fields off: %s", fmt.Sprintf("%+v", rep))
	}
}
