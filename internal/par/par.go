// Package par is the repository's multicore execution layer: a small,
// deterministic worker-pool primitive for fanning independent work items
// out across cores.
//
// Design constraints, in order:
//
//   - Determinism. Results are collected by item index, never by
//     completion order, so callers that give every item its own RNG
//     seed, sim engine, and collector produce bit-identical output at
//     any worker count. Nothing in this package introduces ordering
//     into results.
//   - Bounded fan-out. A process-wide token pool caps the number of
//     extra worker goroutines across all concurrent and nested Do/Map
//     calls. The calling goroutine always participates, so a call that
//     obtains no tokens degrades to a plain serial loop — nested
//     parallelism (experiment cells that call parallel path
//     computation) can never deadlock or oversubscribe the machine.
//   - Panic transparency. A panic in any work item is captured and
//     re-raised in the caller as a *Panic carrying the item index, the
//     original value, and the worker's stack, instead of crashing the
//     process from an anonymous goroutine.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// tokens is the process-wide pool of extra-worker permits. Capacity
// limit-1: the caller of every Do is itself a worker, so limit L means
// at most L goroutines are ever running work items for one call chain.
var (
	tokensMu sync.Mutex
	tokens   chan struct{}
)

func init() { SetLimit(0) }

// SetLimit caps the total number of goroutines running work items
// across all Do/Map calls, nested or concurrent. n <= 0 resets to
// runtime.GOMAXPROCS(0). Call it from main (pnetbench's -workers flag)
// or test setup; changing the limit does not affect calls already in
// flight, and never changes results — only scheduling.
func SetLimit(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tokensMu.Lock()
	defer tokensMu.Unlock()
	tokens = make(chan struct{}, n-1)
}

// Limit reports the current process-wide worker cap.
func Limit() int {
	tokensMu.Lock()
	defer tokensMu.Unlock()
	return cap(tokens) + 1
}

// Workers resolves a per-call worker request: n > 0 is taken as-is,
// anything else means "use every core" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool occupancy counters, sampled by the event-loop profiler to report
// how busy the execution layer actually was. Counting is atomic (Do runs
// concurrently) but purely observational — it never affects scheduling
// or results.
var (
	poolPeak  atomic.Int64 // high-water mark of held tokens + 1
	poolTasks atomic.Int64 // work items completed since process start
)

// Stats is a snapshot of worker-pool occupancy.
type Stats struct {
	// Limit is the process-wide worker cap (see SetLimit).
	Limit int
	// Peak is the maximum number of goroutines observed running work
	// items simultaneously since process start: the worker tokens
	// held plus the one calling goroutine, however deeply its Do calls
	// nest. Never above the Limit the tokens were taken under.
	Peak int
	// Tasks is the number of work items completed since process start.
	Tasks int64
}

// PoolStats snapshots the pool's occupancy counters.
func PoolStats() Stats {
	return Stats{
		Limit: Limit(),
		Peak:  int(poolPeak.Load()),
		Tasks: poolTasks.Load(),
	}
}

// notePeak raises the high-water mark to held tokens plus the caller. A
// nested Do runs on a goroutine that is already counted, as the caller
// or as a token, so only taking a token adds one.
func notePeak(held int) {
	n := int64(held) + 1
	for {
		p := poolPeak.Load()
		if n <= p || poolPeak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Panic is re-raised in the Do/Map caller when a work item panicked in
// a worker goroutine.
type Panic struct {
	// Index is the work item that panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("par: work item %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Do runs fn(i) for every i in [0, n) with at most `workers` of them in
// flight at once (0 = GOMAXPROCS), further bounded by the process-wide
// limit. fn must treat shared inputs as read-only; writes must go to
// per-index slots. The call returns when every item has finished. If an
// item panics, remaining unstarted items are skipped and the panic is
// re-raised here as a *Panic once in-flight items drain.
//
// workers == 1 (or n <= 1) runs everything inline on the calling
// goroutine — the serial fallback path, byte-identical by construction.
// In that mode a panic propagates unwrapped, exactly as a plain loop
// would raise it.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 || n == 1 {
		notePeak(0)
		for i := 0; i < n; i++ {
			fn(i)
			poolTasks.Add(1)
		}
		return
	}

	tokensMu.Lock()
	pool := tokens
	tokensMu.Unlock()

	var (
		next atomic.Int64
		fail atomic.Pointer[Panic]
		wg   sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					poolTasks.Add(1)
					if r := recover(); r != nil {
						// Stop handing out items first: capturing the
						// stack is slow enough for the other workers to
						// drain the queue meanwhile.
						next.Store(int64(n))
						p := &Panic{Index: i, Value: r, Stack: debug.Stack()}
						fail.CompareAndSwap(nil, p)
					}
				}()
				fn(i)
			}()
		}
	}
	// Grab up to w-1 extra workers without blocking; whatever the pool
	// cannot spare is simply absorbed by the caller running more items
	// itself. This is what makes nested Do calls safe: inner calls find
	// the pool drained and run inline.
	notePeak(len(pool))
acquire:
	for i := 0; i < w-1; i++ {
		select {
		case pool <- struct{}{}:
		default:
			break acquire // pool drained; the caller absorbs the rest
		}
		notePeak(len(pool))
		wg.Add(1)
		go func() {
			defer func() {
				<-pool
				wg.Done()
			}()
			work()
		}()
	}
	work() // the caller is always a worker
	wg.Wait()
	if p := fail.Load(); p != nil {
		panic(p)
	}
}

// Map runs fn(i) for every i in [0, n) under the same pool rules as Do
// and returns the results in index order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
