package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 100, 20*time.Second)
	b := poissonSchedule(7, 100, 20*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d sends", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at send %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := poissonSchedule(8, 100, 20*time.Second)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// 2000 expected arrivals; a Poisson count stays within 5σ (≈224).
	if n := len(a); math.Abs(float64(n)-2000) > 5*math.Sqrt(2000) {
		t.Errorf("%d arrivals in 20s at 100/s", n)
	}
	for i := range a {
		if a[i] < 0 || a[i] >= 20*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("send %d at %v is out of order or outside the window", i, a[i])
		}
	}
}

// A server that stalls once must be charged for the stall on every request
// that was due while it lasted, not only on the stalled one.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	const gap = 10 * time.Millisecond
	sched := make([]time.Duration, 30)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	lg := &openLoop{Schedule: sched, Conns: 1, Send: func(int) error {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	}}
	shots := lg.run()

	for i, s := range shots {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
		if s.Late() > 50*time.Millisecond {
			t.Errorf("generator released request %d %v late; it should not wait on the server", i, s.Late())
		}
	}
	if l := shots[4].Latency(); l < stall {
		t.Errorf("stalled request latency %v, want at least %v", l, stall)
	}
	// Request 4+k was due k gaps after the stalled one and could not start
	// before the stall ended, so it waited at least stall - k·gap.
	for k := 1; k < 15; k++ {
		want := stall - time.Duration(k)*gap
		if l := shots[4+k].Latency(); l < want {
			t.Errorf("request %d latency %v, want at least %v (queued behind the stall)", 4+k, l, want)
		}
	}
	if l := shots[len(shots)-1].Latency(); l > stall/2 {
		t.Errorf("last request latency %v: the backlog should have drained by then", l)
	}
}

func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	const lag = 20 * time.Millisecond
	sched := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	lg := &openLoop{
		Schedule: sched, Conns: 2,
		Send:       func(int) error { return nil },
		sleepUntil: func(t time.Time) { time.Sleep(time.Until(t.Add(lag))) },
	}
	for i, s := range lg.run() {
		if s.Late() < lag {
			t.Errorf("request %d lateness %v, want at least the injected %v", i, s.Late(), lag)
		}
		if s.Latency() < s.Late() {
			t.Errorf("request %d latency %v is below its lateness %v: latency must count from the due time", i, s.Latency(), s.Late())
		}
	}
}
