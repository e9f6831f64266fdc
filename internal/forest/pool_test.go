package forest

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, runtime.NumCPU(), 2 * runtime.NumCPU(), 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			parallelFor(workers, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestParallelForPropagatesPanic(t *testing.T) {
	defer func() {
		p := recover()
		if p != "boom" {
			t.Fatalf("recovered %v, want the task's panic value", p)
		}
	}()
	parallelFor(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("parallelFor returned instead of panicking")
}

// balanceTraced runs a small balance on p ranks with the given worker count
// under an attached tracer and returns the tracer for inspection, with the
// balanced forest's checksum.
func balanceTraced(t *testing.T, p, workers int) (*obs.Tracer, uint64) {
	t.Helper()
	conn := NewBrick(3, 2, 1, 1, [3]bool{})
	tracer := obs.NewTracer(p)
	w := comm.NewWorld(p)
	w.SetTracer(tracer)
	var sum uint64
	w.Run(func(c *comm.Comm) {
		f := NewUniform(conn, c, 1)
		f.Refine(c, 4, fractalRefine(4))
		f.Partition(c, nil)
		f.Workers = workers
		f.Balance(c, 3, BalanceOptions{})
		if s := f.Checksum(c); c.Rank() == 0 {
			sum = s
		}
	})
	w.Close()
	return tracer, sum
}

// parSpans counts the local/par spans over every rank track.
func parSpans(tr *obs.Tracer) int {
	n := 0
	for r := 0; r < tr.NumRanks(); r++ {
		for _, s := range tr.Spans(r) {
			if s.Name == obs.SpanLocalPar {
				n++
			}
		}
	}
	return n
}

// TestWorkerPoolTracing pins the observability contract of the worker
// pool: with a pool active every rank samples the local/workers gauge and
// records local/par spans (opened on the rank's own goroutine, so strict
// span nesting holds — Spans panics otherwise); a serial run emits
// neither.  The default at P = 1 takes every CPU and balances to the same
// forest as the serial run.
func TestWorkerPoolTracing(t *testing.T) {
	tr, _ := balanceTraced(t, 2, 3)
	if g := tr.MaxGauge(obs.GaugeLocalWorkers); g != 3 {
		t.Errorf("gauge %s = %d, want 3", obs.GaugeLocalWorkers, g)
	}
	if parSpans(tr) == 0 {
		t.Errorf("no %s spans recorded with a 3-worker pool", obs.SpanLocalPar)
	}

	tr, _ = balanceTraced(t, 2, 1)
	if g := tr.MaxGauge(obs.GaugeLocalWorkers); g != 0 {
		t.Errorf("serial run sampled gauge %s = %d, want none", obs.GaugeLocalWorkers, g)
	}
	if n := parSpans(tr); n != 0 {
		t.Fatalf("serial run recorded %d %s spans", n, obs.SpanLocalPar)
	}

	_, serial := balanceTraced(t, 1, 1)
	tr, sum := balanceTraced(t, 1, 0)
	if sum != serial {
		t.Errorf("default pool at P=1: checksum %#x, serial %#x", sum, serial)
	}
	want := int64(runtime.GOMAXPROCS(0))
	if want < 2 {
		want = 0 // a one-CPU default is serial and samples nothing
	}
	if g := tr.MaxGauge(obs.GaugeLocalWorkers); g != want {
		t.Errorf("default pool at P=1: gauge %s = %d, want %d", obs.GaugeLocalWorkers, g, want)
	}
}

func TestWorkerCountResolution(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, localRanks int
		want                int
	}{
		{0, 1, procs}, {0, 2, max(1, procs/2)}, {0, procs, 1}, {0, 2 * procs, 1},
		{1, 1, 1}, {2, 1, 2}, {7, 1, 7}, {7, 64, 7}, {-1, 1, procs}, {-1, 64, procs},
	}
	for _, c := range cases {
		if got := (&Forest{Workers: c.workers}).workerCount(c.localRanks); got != c.want {
			t.Errorf("workerCount(Workers=%d, %d local ranks) = %d, want %d", c.workers, c.localRanks, got, c.want)
		}
	}
}
