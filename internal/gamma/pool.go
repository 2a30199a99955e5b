package gamma

import (
	"sync"

	"gammajoin/internal/cost"
)

// workerPool keeps one stack of parked worker goroutines per site, so the
// tens to hundreds of barrier-synchronized phases in one query reuse the
// same goroutines instead of spawning fresh ones per phase per role. The
// pool is owned by the Cluster; workers live for the duration of one
// query-execution tenure (AcquireRun..ReleaseRun) and are drained — closed
// and joined — when the run lock is released, so nothing lingers between
// queries and the goroutine-leak tests see a quiescent process.
//
// Submission never queues: if the site has no parked worker a new one is
// spawned. This is load-bearing, not just a latency choice — a phase's
// producer and consumer for the same site must run concurrently (the
// consumer drains the exchange the producer fills), so handing a task to a
// busy worker could deadlock the phase.
type workerPool struct {
	mu       sync.Mutex
	idle     map[int][]*poolWorker
	draining bool
	wg       sync.WaitGroup
}

// poolTask is one phase worker (Phase.Go): the task carries the span labels
// and the body itself, so submitting it allocates nothing beyond fn.
type poolTask struct {
	site     int // physical host; also the affinity key for re-parking
	p        *Phase
	wg       *sync.WaitGroup
	op, role string
	bucket   int
	fn       func(a *cost.Acct)
}

type poolWorker struct {
	ch chan poolTask
}

// Go runs the task on a worker with affinity to its site: a worker that
// last ran a task for the site if one is parked, otherwise a fresh
// goroutine. The task runs asynchronously; callers synchronize through its
// WaitGroup, exactly as with a bare `go` statement.
func (p *workerPool) Go(t poolTask) {
	p.mu.Lock()
	var w *poolWorker
	if ws := p.idle[t.site]; len(ws) > 0 {
		w = ws[len(ws)-1]
		p.idle[t.site] = ws[:len(ws)-1]
	}
	p.mu.Unlock()
	if w == nil {
		w = &poolWorker{ch: make(chan poolTask, 1)}
		p.wg.Add(1)
		go w.loop(p)
	}
	w.ch <- t
}

func (w *poolWorker) loop(p *workerPool) {
	defer p.wg.Done()
	for task := range w.ch {
		task.p.run(&task)
		if !p.park(w, task.site) {
			return
		}
	}
}

// park returns the worker to its site's idle stack; a false return tells
// the worker to exit instead (the pool started draining while it ran).
func (p *workerPool) park(w *poolWorker, site int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return false
	}
	if p.idle == nil {
		p.idle = make(map[int][]*poolWorker)
	}
	p.idle[site] = append(p.idle[site], w)
	return true
}

// drain terminates every worker and waits for them to exit. Callers must
// guarantee no Go calls are in flight (the cluster calls it under the run
// lock, after the query's last phase barrier).
func (p *workerPool) drain() {
	p.mu.Lock()
	p.draining = true
	var ws []*poolWorker
	for _, list := range p.idle {
		ws = append(ws, list...)
	}
	p.idle = nil
	p.mu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
	p.wg.Wait()
	p.mu.Lock()
	p.draining = false
	p.mu.Unlock()
}
