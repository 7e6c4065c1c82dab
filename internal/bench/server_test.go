package bench

import (
	"testing"
)

// TestRunServerDeterministic runs the wire-serving experiment twice and
// requires byte-identical reports: the simulated latencies must not depend
// on goroutine scheduling (disjoint key ranges).
func TestRunServerDeterministic(t *testing.T) {
	opts := ServerOpts{Conns: 4, Txns: 4, Slots: 2, Queue: 3}
	a, err := RunServer(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServer(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := RenderServer(a), RenderServer(b)
	if ra != rb {
		t.Fatalf("nondeterministic server experiment:\n--- run 1\n%s\n--- run 2\n%s", ra, rb)
	}

	for _, m := range a.Modes {
		if m.Txn.N != opts.Conns*opts.Txns {
			t.Fatalf("%s: %d samples, want %d", m.Mode, m.Txn.N, opts.Conns*opts.Txns)
		}
		if m.Txn.Mean <= 0 || m.TPS <= 0 {
			t.Fatalf("%s: degenerate measurement %+v tps %f", m.Mode, m.Txn, m.TPS)
		}
		if m.Rejected != 0 {
			t.Fatalf("%s: workload run rejected %d statements (should queue, not error)", m.Mode, m.Rejected)
		}
	}
	adm := a.Admission
	if adm.Queued != int64(opts.Queue) || adm.Completed != opts.Queue || adm.Rejected != 1 {
		t.Fatalf("admission demo %+v, want Queued=%d Completed=%d Rejected=1", adm, opts.Queue, opts.Queue)
	}
}
