package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withLimit runs f under a temporary process-wide worker cap.
func withLimit(t *testing.T, n int, f func()) {
	t.Helper()
	old := Limit()
	SetLimit(n)
	defer SetLimit(old)
	f()
}

func TestMapOrdering(t *testing.T) {
	for _, limit := range []int{1, 2, 8, 0} {
		withLimit(t, limit, func() {
			got := Map(100, func(i int) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("limit=%d: out[%d] = %d, want %d", limit, i, v, i*i)
				}
			}
		})
	}
}

func TestDoRunsEveryItemExactlyOnce(t *testing.T) {
	withLimit(t, 8, func() {
		const n = 1000
		counts := make([]atomic.Int32, n)
		Do(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("item %d ran %d times", i, c)
			}
		}
	})
}

func TestWorkerOneIsInline(t *testing.T) {
	// A limit of 1 must run on the calling goroutine, in index order, with
	// no pool interaction — the serial fallback.
	withLimit(t, 1, func() {
		var order []int
		Do(10, func(i int) { order = append(order, i) }) // unsynchronized append: inline or race
		for i, v := range order {
			if v != i {
				t.Fatalf("serial fallback out of order: %v", order)
			}
		}
	})
}

func TestZeroAndNegativeN(t *testing.T) {
	ran := false
	Do(0, func(int) { ran = true })
	Do(-3, func(int) { ran = true })
	if ran {
		t.Error("fn ran for n <= 0")
	}
	if out := Map(0, func(int) int { return 1 }); len(out) != 0 {
		t.Errorf("Map(0) = %v", out)
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withLimit(t, workers, func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if workers == 1 {
					// The serial fallback is a plain loop: the panic
					// arrives unwrapped.
					if r != "boom" {
						t.Fatalf("workers=1: recovered %v, want raw \"boom\"", r)
					}
					return
				}
				p, ok := r.(*Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *Panic", workers, r)
				}
				if p.Value != "boom" {
					t.Errorf("panic value = %v, want boom", p.Value)
				}
				if p.Index != 3 {
					t.Errorf("panic index = %d, want 3", p.Index)
				}
				if len(p.Stack) == 0 {
					t.Error("panic lost its stack")
				}
			}()
			Do(8, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		})
	}
}

func TestPanicStopsSchedulingNewItems(t *testing.T) {
	withLimit(t, 2, func() {
		var ran atomic.Int32
		// Items after the first wait until item 0 is about to panic, so a
		// worker descheduled between taking item 0 and running it cannot
		// watch the other one drain the queue. Each then takes 10 µs, so
		// one descheduled between the panic and its recover would have to
		// stay off the CPU for 90 ms to let 9000 through.
		started := make(chan struct{})
		func() {
			defer func() { recover() }()
			Do(10_000, func(i int) {
				if i == 0 {
					close(started)
					panic("early")
				}
				<-started
				for t0 := time.Now(); time.Since(t0) < 10*time.Microsecond; {
				}
				ran.Add(1)
			})
		}()
		// In-flight items may finish, but the bulk of the queue must be
		// skipped once the panic lands.
		if n := ran.Load(); n > 9000 {
			t.Errorf("%d items ran after an item-0 panic", n)
		}
	})
}

func TestNestedDoDoesNotDeadlock(t *testing.T) {
	withLimit(t, 4, func() {
		var sum atomic.Int64
		Do(8, func(i int) {
			// Inner fan-out while the outer call may hold every token:
			// must degrade to inline execution, never block.
			Do(8, func(j int) { sum.Add(int64(i*8 + j)) })
		})
		want := int64(64 * 63 / 2)
		if got := sum.Load(); got != want {
			t.Fatalf("sum = %d, want %d", got, want)
		}
	})
}

func TestBoundedConcurrency(t *testing.T) {
	const limit = 3
	withLimit(t, limit, func() {
		var cur, peak atomic.Int32
		Do(64, func(i int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			runtime.Gosched()
			cur.Add(-1)
		})
		if p := peak.Load(); p > limit {
			t.Errorf("observed %d concurrent items, limit %d", p, limit)
		}
	})
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Error("zero did not resolve to GOMAXPROCS")
	}
	if Workers(-2) != runtime.GOMAXPROCS(0) {
		t.Error("negative did not resolve to GOMAXPROCS")
	}
	withLimit(t, 7, func() {
		if Limit() != 7 {
			t.Errorf("Limit = %d, want 7", Limit())
		}
	})
}
