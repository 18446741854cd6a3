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
// across all Do/Map calls, nested or concurrent, at Workers(n): n <= 0
// resets to runtime.GOMAXPROCS(0). Call it from main (pnetbench's
// -workers flag) or test setup; changing the limit does not affect calls
// already in flight, and never changes results — only scheduling.
func SetLimit(n int) {
	n = Workers(n)
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

// Workers resolves a worker-count request: n > 0 is taken as-is,
// anything else means "use every core" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
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

// Do runs fn(i) for every i in [0, n), with as many in flight at once as
// the process-wide limit allows. fn must treat shared inputs as
// read-only; writes must go to per-index slots. The call returns when
// every item has finished. If an item panics, remaining unstarted items
// are skipped and the panic is re-raised here as a *Panic once in-flight
// items drain.
//
// Under a limit of 1 (or for n == 1) everything runs inline on the
// calling goroutine — the serial fallback path, byte-identical by
// construction. In that mode a panic propagates unwrapped, exactly as a
// plain loop would raise it.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	tokensMu.Lock()
	pool := tokens
	tokensMu.Unlock()
	w := min(n, cap(pool)+1)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

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
acquire:
	for i := 0; i < w-1; i++ {
		select {
		case pool <- struct{}{}:
		default:
			break acquire // pool drained; the caller absorbs the rest
		}
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
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(n, func(i int) { out[i] = fn(i) })
	return out
}
