package core

import (
	"errors"
	"reflect"
	"testing"

	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
)

// The serial-vs-batched equivalence matrix is the contract of the batched
// engine: the network's delivery-run length (Network.SetRunLength) changes
// only how many packets a sender hands to an exchange per operation — never
// what the simulator charges. Every cell below runs one algorithm in one
// scenario twice, once with the legacy packet-at-a-time engine (run length
// 1) and once with the batched default, and requires bit-identical reports,
// result relations, and canonical traces.

// newBatchCluster builds the matrix's cluster with the given delivery-run
// length. The setting lives on the cluster's network, so concurrent runs
// never share it.
func newBatchCluster(batch int) *gamma.Cluster {
	c := gamma.NewLocal(8, nil)
	c.Net.SetRunLength(batch)
	return c
}

// batchScenario is one row of the matrix: a cluster mutation applied before
// the workload is loaded, plus optional spec tweaks.
type batchScenario struct {
	name  string
	setup func(t *testing.T, alg Algorithm, c *gamma.Cluster)
	opts  func(sp *Spec)
}

func batchScenarios() []batchScenario {
	return []batchScenario{
		{name: "clean"},
		{
			// Transient disk read errors: retries reorder nothing, but
			// charge retry costs and consume retry budget.
			name: "disk-retry",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				c.EnableFaults(fault.Spec{Seed: 21, DiskReadRate: 0.05})
			},
		},
		{
			// Dropped and duplicated packets: the fault schedule is keyed
			// on (src, dst, tag, seq), so the batched transport must
			// produce the identical packet sequence numbering.
			name: "net-faults",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				c.EnableFaults(fault.Spec{Seed: 22, NetDropRate: 0.05, NetDupRate: 0.05})
			},
		},
		{
			// A mid-unit crash with mirrors enabled: the run fails over to
			// the ring neighbor and redoes the unit's completed phases.
			name: "failover",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				if err := c.EnableMirrors(); err != nil {
					t.Fatal(err)
				}
				c.EnableFaults(fault.Spec{
					Seed:  99,
					Crash: &fault.CrashPoint{Phase: midUnitCrash[alg], Site: 3},
				})
			},
		},
		{
			// Memory pressure and budget swings mid-phase: revocations and
			// grants land at simulated times, which must not depend on the
			// delivery-run length.
			name: "budget-swing",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				c.EnableFaults(fault.Spec{
					Seed:            7,
					MemPressureRate: 0.5,
					MemShrinkFactor: 0.6,
					MemGrowFactor:   1.4,
					BudgetSwingRate: 0.3,
				})
			},
		},
	}
}

// runMatrixCell executes one (scenario, algorithm) cell at the given batch
// size and returns the report.
func runMatrixCell(t *testing.T, sc batchScenario, alg Algorithm, batch int) *Report {
	t.Helper()
	c := newBatchCluster(batch)
	if sc.setup != nil {
		sc.setup(t, alg, c)
	}
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	return runJoin(t, f, alg, 0.25, func(sp *Spec) {
		sp.CollectResults = true
		sp.BitFilter = true
		if sc.opts != nil {
			sc.opts(sp)
		}
	})
}

// TestBatchedEquivalence: for every algorithm in every scenario, the serial
// and batched engines must agree on the result relation (as a canonical
// checksum), the exported trace (byte-for-byte), and the entire cost report
// (struct-for-struct).
func TestBatchedEquivalence(t *testing.T) {
	if netsim.DefaultRunLength <= 1 {
		t.Fatalf("DefaultRunLength = %d; the batched engine is not distinct from the serial one", netsim.DefaultRunLength)
	}
	for _, sc := range batchScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, alg := range allAlgs {
				serial := runMatrixCell(t, sc, alg, 1)
				batched := runMatrixCell(t, sc, alg, netsim.DefaultRunLength)

				if cs, cb := resultChecksum(serial.Results), resultChecksum(batched.Results); cs != cb {
					t.Errorf("%v: result checksums differ: serial %016x batched %016x", alg, cs, cb)
				}
				if js, jb := chromeJSON(t, serial.Trace), chromeJSON(t, batched.Trace); js != jb {
					t.Errorf("%v: canonical trace differs between serial and batched engines", alg)
				}
				// Results may arrive in different orders (compared above in
				// canonical form) and the recorder's internal slices are in
				// scheduler order; every simulated metric must be identical.
				serial.Results, batched.Results = nil, nil
				serial.Trace, batched.Trace = nil, nil
				if !reflect.DeepEqual(serial, batched) {
					t.Errorf("%v: cost reports differ between engines:\nserial:  %+v\nbatched: %+v", alg, serial, batched)
				}
			}
		})
	}
}

// TestBatchedEquivalenceCancel is the matrix's cancel-at-deadline column: a
// deadline landing strictly mid-join must cancel at the same simulated
// instant in both engines — deadlines are simulated time, and simulated
// time must not move with the delivery-run length. Both engines must
// surface the same error chain and return no report.
func TestBatchedEquivalenceCancel(t *testing.T) {
	for _, alg := range allAlgs {
		// Establish the clean response (and from it a mid-join deadline)
		// with the serial engine; equivalence of the clean run is covered
		// by the matrix above.
		dl := cancelDeadline(t, mkFixture(t, newBatchCluster(1), 4000, gamma.HashPart, tuple.Unique1), alg, 0.25)

		cancel := func(batch int) error {
			f := mkFixture(t, newBatchCluster(batch), 4000, gamma.HashPart, tuple.Unique1)
			rep, err := Run(f.c, Spec{
				Alg: alg, R: f.r, S: f.s,
				RAttr: tuple.Unique1, SAttr: tuple.Unique1,
				MemRatio: 0.25, DeadlineNs: dl,
			})
			if err == nil {
				t.Fatalf("%v: batch %d: mid-join deadline did not cancel", alg, batch)
			}
			if rep != nil {
				t.Fatalf("%v: batch %d: canceled run returned a report", alg, batch)
			}
			return err
		}

		es, eb := cancel(1), cancel(netsim.DefaultRunLength)
		if !errors.Is(es, ErrDeadlineExceeded) || !errors.Is(eb, ErrDeadlineExceeded) {
			t.Errorf("%v: cancel errors not deadline-shaped: serial %v, batched %v", alg, es, eb)
		}
		if es.Error() != eb.Error() {
			t.Errorf("%v: cancel errors differ between engines:\nserial:  %v\nbatched: %v", alg, es, eb)
		}
	}
}
