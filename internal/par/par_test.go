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
	for _, workers := range []int{1, 2, 8, 0} {
		withLimit(t, 8, func() {
			got := Map(100, workers, func(i int) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
				}
			}
		})
	}
}

func TestDoRunsEveryItemExactlyOnce(t *testing.T) {
	withLimit(t, 8, func() {
		const n = 1000
		counts := make([]atomic.Int32, n)
		Do(n, 0, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("item %d ran %d times", i, c)
			}
		}
	})
}

func TestWorkerOneIsInline(t *testing.T) {
	// workers=1 must run on the calling goroutine, in index order, with
	// no pool interaction — the serial fallback.
	var order []int
	Do(10, 1, func(i int) { order = append(order, i) }) // unsynchronized append: inline or race
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback out of order: %v", order)
		}
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	ran := false
	Do(0, 4, func(int) { ran = true })
	Do(-3, 4, func(int) { ran = true })
	if ran {
		t.Error("fn ran for n <= 0")
	}
	if out := Map(0, 4, func(int) int { return 1 }); len(out) != 0 {
		t.Errorf("Map(0) = %v", out)
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withLimit(t, 4, func() {
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
			Do(8, workers, func(i int) {
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
			Do(10_000, 2, func(i int) {
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
		Do(8, 0, func(i int) {
			// Inner fan-out while the outer call may hold every token:
			// must degrade to inline execution, never block.
			Do(8, 0, func(j int) { sum.Add(int64(i*8 + j)) })
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
		Do(64, 0, func(i int) {
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

// resetStats zeroes the occupancy counters (not the limit).
func resetStats() {
	poolPeak.Store(0)
	poolTasks.Store(0)
}

// TestPeakCountsGoroutinesNotNesting pins what PoolStats().Peak means:
// goroutines running items, so a Do nested in a Do adds nothing for the
// goroutine it is already running on, and Peak cannot pass the limit. It
// read 4 at limit 2 when every nesting level counted itself.
func TestPeakCountsGoroutinesNotNesting(t *testing.T) {
	for _, limit := range []int{1, 2} {
		withLimit(t, limit, func() {
			resetStats()
			Do(4, 0, func(int) {
				Do(4, 0, func(int) { Do(2, 1, func(int) { runtime.Gosched() }) })
			})
			st := PoolStats()
			if st.Peak < 1 || st.Peak > limit {
				t.Errorf("limit %d: Peak = %d, want 1..%d", limit, st.Peak, limit)
			}
			if st.Tasks != 4+16+32 {
				t.Errorf("limit %d: Tasks = %d, want 52", limit, st.Tasks)
			}
		})
	}
}

// TestSerialPanicLeavesNoOccupancy checks that a panic out of the inline
// branch, recovered by the caller, is not still counted as a goroutine
// running an item in the next run.
func TestSerialPanicLeavesNoOccupancy(t *testing.T) {
	withLimit(t, 2, func() {
		func() {
			defer func() { _ = recover() }()
			Do(3, 1, func(i int) { panic("boom") })
		}()
		resetStats()
		Do(3, 1, func(int) {})
		if p := PoolStats().Peak; p != 1 {
			t.Errorf("Peak after a recovered serial panic = %d, want 1", p)
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
