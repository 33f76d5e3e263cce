package main

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate requests per second over window, drawn from seed: the same seed
// gives the same schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= window {
			return out
		}
		out = append(out, off)
	}
}

// shot is one scheduled request's timing and outcome.
type shot struct {
	Due        time.Time // when the schedule said to send it
	Dispatched time.Time // when the generator released it to the connections
	Done       time.Time // when its answer was in hand
	Err        error
}

// Latency is measured from the due time, so a stall that delays later
// sends is charged to the requests that waited behind it.
func (s shot) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Late is how far behind schedule the generator itself released the
// request.
func (s shot) Late() time.Duration { return s.Dispatched.Sub(s.Due) }

// openLoop sends requests on a fixed schedule, whatever the system's speed,
// through a bounded set of connections: when every connection is busy, due
// requests wait in the generator's queue and that wait counts in their
// latency.
type openLoop struct {
	Schedule []time.Duration
	Conns    int
	// Send issues request i and returns nil only for a correct answer.
	Send func(i int) error
	// sleepUntil blocks until t; nil sleeps on the wall clock. Tests
	// replace it to make the generator run late.
	sleepUntil func(t time.Time)
}

// run plays the schedule from now and returns one shot per request, in
// schedule order, once every request has been answered.
func (o *openLoop) run() []shot {
	sleepUntil := o.sleepUntil
	if sleepUntil == nil {
		sleepUntil = func(t time.Time) { time.Sleep(time.Until(t)) }
	}
	shots := make([]shot, len(o.Schedule))
	// Sized to the whole schedule so releasing a request never blocks the
	// generator, however far the connections fall behind.
	queue := make(chan int, len(o.Schedule))
	var wg sync.WaitGroup
	for c := 0; c < o.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := o.Send(i)
				shots[i].Done = time.Now()
				shots[i].Err = err
			}
		}()
	}
	start := time.Now()
	for i, off := range o.Schedule {
		due := start.Add(off)
		sleepUntil(due)
		shots[i].Due = due
		shots[i].Dispatched = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return shots
}
