package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 3, 7, 100, 1001} {
		marks := make([]int32, n)
		p.For(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, m)
			}
		}
	}
}

func TestForInlineWhenSingleWorker(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	calls := 0
	p.For(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("inline chunk = [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestForRespectsGrain(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var chunks int32
	p.For(10, 100, func(lo, hi int) { atomic.AddInt32(&chunks, 1) })
	if chunks != 1 {
		t.Errorf("chunks = %d, want 1 (grain larger than range)", chunks)
	}
}

func TestForEach(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var sum int64
	p.ForEach(100, 1, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Errorf("sum = %d, want 4950", sum)
	}
}

func TestDefaultPoolUsable(t *testing.T) {
	if Default.Workers() < 1 {
		t.Fatalf("default pool has %d workers", Default.Workers())
	}
	var count int32
	Default.For(50, 1, func(lo, hi int) { atomic.AddInt32(&count, int32(hi-lo)) })
	if count != 50 {
		t.Errorf("count = %d, want 50", count)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestNegativeAndZeroWorkers(t *testing.T) {
	p := NewPool(-5)
	defer p.Close()
	if p.Workers() < 1 {
		t.Errorf("workers = %d, want >= 1", p.Workers())
	}
}

func TestForSumProperty(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	f := func(n uint16) bool {
		m := int(n % 2000)
		var got int64
		p.For(m, 7, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			atomic.AddInt64(&got, local)
		})
		want := int64(m) * int64(m-1) / 2
		if m == 0 {
			want = 0
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForUsableAfterClose(t *testing.T) {
	p := NewPool(4)
	p.Close()
	var sum int64
	p.For(100, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += int64(i) // inline execution: no race possible
		}
	})
	if sum != 4950 {
		t.Errorf("sum after close = %d, want 4950", sum)
	}
}

// TestForConcurrentCallers shares one pool among goroutines that each run
// many parallel loops, so recycled completion counters are handed from
// call to call across goroutines; every loop must still cover its range
// exactly once before it returns.
func TestForConcurrentCallers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const callers, loops, n = 4, 200, 37
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < loops; l++ {
				hits := make([]int32, n)
				p.For(n, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Errorf("index %d covered %d times", i, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
