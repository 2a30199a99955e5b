package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
)

// Mid-join cancellation (Spec.DeadlineNs) must unwind as
// cleanly as an error: every phase worker joined, every temp wiss file
// dropped, every memory lease released. These tests drive each algorithm
// into a deadline cancel that lands mid-run and assert the teardown, under
// -race via make race / make deflake.

// cancelDeadline picks a deadline that lands strictly mid-join: half the
// algorithm's clean-run response at the same ratio.
func cancelDeadline(t *testing.T, f fixture, alg Algorithm, ratio float64) cost.SimNs {
	t.Helper()
	rep := runJoin(t, f, alg, ratio, nil)
	if rep.Response <= 0 {
		t.Fatalf("%v: clean run reported response %v", alg, rep.Response)
	}
	return cost.DurNs(rep.Response / 2)
}

// cancelRun runs alg with the given deadline and requires it to cancel.
func cancelRun(t *testing.T, f fixture, alg Algorithm, ratio float64, dl cost.SimNs) {
	t.Helper()
	spec := Spec{
		Alg:        alg,
		R:          f.r,
		S:          f.s,
		RAttr:      tuple.Unique1,
		SAttr:      tuple.Unique1,
		MemRatio:   ratio,
		DeadlineNs: dl,
	}
	rep, err := Run(f.c, spec)
	if err == nil {
		t.Fatalf("%v: deadline %v did not cancel", alg, time.Duration(dl))
	}
	if !errors.Is(err, ErrQueryCanceled) || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("%v: cancel surfaced as %v, want ErrDeadlineExceeded", alg, err)
	}
	if rep != nil {
		t.Fatalf("%v: canceled run returned a report", alg)
	}
}

// TestNoGoroutineLeakOnCancel: a deadline landing mid-join cancels each of
// the five algorithms; every phase worker must be joined before Run
// returns, so the goroutine count returns to baseline.
func TestNoGoroutineLeakOnCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		cancelRun(t, f, alg, 0.5, cancelDeadline(t, f, alg, 0.5))
	}
	quiesce(t, baseline)
}

// TestNoTempFilesAfterCancel: the temp-file ledger must be empty after a
// mid-join cancel — partitioning spills (Grace, Hybrid, hybrid-dyn) and
// sort runs (sort-merge) are deleted on the unwind path, not leaked into
// the simulated file system. Ratio 0.25 forces every algorithm that spills
// to actually spill before the deadline lands.
func TestNoTempFilesAfterCancel(t *testing.T) {
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		cancelRun(t, f, alg, 0.25, cancelDeadline(t, f, alg, 0.25))
		if live := f.c.LiveTempFiles(); len(live) != 0 {
			t.Fatalf("%v: %d temp files live after cancel: %v", alg, len(live), live)
		}
	}
}

// TestDeadlineBeyondResponseCompletes: a deadline the query beats must not
// perturb the run at all — same response, same checksum as no deadline.
func TestDeadlineBeyondResponseCompletes(t *testing.T) {
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 2000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		clean := runJoin(t, f, alg, 0.5, nil)
		rep := runJoin(t, f, alg, 0.5, func(s *Spec) {
			s.DeadlineNs = cost.DurNs(2 * clean.Response)
		})
		if rep.Response != clean.Response || rep.ResultSum != clean.ResultSum {
			t.Fatalf("%v: generous deadline changed the run: %v/%x vs %v/%x",
				alg, rep.Response, rep.ResultSum, clean.Response, clean.ResultSum)
		}
	}
}
