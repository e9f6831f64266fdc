package forest

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// numCPUWorkers is the pool size a negative Forest.Workers asks for.
func numCPUWorkers() int { return runtime.GOMAXPROCS(0) }

// This file is the rank-local worker pool behind Forest.Workers: a
// bounded fork-join helper that fans independent index ranges out over a
// fixed number of goroutines.  Tasks pull indices from a shared atomic
// counter (work stealing over a static range), so scheduling order is
// nondeterministic — every caller therefore writes its result into a slot
// keyed by the task index, which keeps the observable output identical at
// any worker count.

// parallelFor runs task(0) .. task(n-1) on up to workers goroutines and
// returns when all tasks finished.  With workers <= 1 (or a single task) it
// degenerates to a plain inline loop, spawning nothing.  Tasks must be
// independent; a panic in any task is re-raised on the calling goroutine
// after the pool drains.
func parallelFor(workers, n int, task func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = p
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// workerCount resolves Forest.Workers to an effective pool size for a rank
// whose process hosts localRanks ranks.  The zero value shares the
// process's CPUs among its ranks, max(1, GOMAXPROCS/localRanks), so a lone
// rank uses every core and P ranks on P cores stay serial; 1 runs
// serially, n > 1 uses a pool of n workers, and a negative value asks for
// one worker per available CPU.
func (f *Forest) workerCount(localRanks int) int {
	switch {
	case f.Workers == 0:
		return max(1, numCPUWorkers()/max(1, localRanks))
	case f.Workers < 0:
		return numCPUWorkers()
	}
	return f.Workers
}
