package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// slot is one request of an open-loop schedule: which case to send and
// when, relative to the start of the schedule.
type slot struct {
	due  time.Duration
	kase int
}

// buildSchedule lays out exactly perCase requests of each of cases cases,
// in a seeded shuffled order, one every 1/rate seconds. Exact counts keep
// the mix, and so the rank a percentile lands on, identical from run to
// run; only the order depends on the seed.
func buildSchedule(cases, perCase int, rate float64, seed int64) []slot {
	order := make([]int, 0, cases*perCase)
	for c := 0; c < cases; c++ {
		for i := 0; i < perCase; i++ {
			order = append(order, c)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	gap := time.Duration(float64(time.Second) / rate)
	out := make([]slot, len(order))
	for i, c := range order {
		out[i] = slot{due: time.Duration(i) * gap, kase: c}
	}
	return out
}

// outcome is what happened to one scheduled request. Times are offsets from
// the schedule's start.
type outcome struct {
	kase            int
	due, sent, done time.Duration
	err             error
}

// latency is the time from when the request was due to when its answer
// arrived, so a stall also charges every request queued behind it.
func (o outcome) latency() time.Duration { return o.done - o.due }

// lateness is how long after its due time the request actually left.
func (o outcome) lateness() time.Duration { return o.sent - o.due }

// runOpenLoop sends the schedule over conns concurrent connections: each
// connection takes the next request in order, waits for its due time, and
// sends it. When every connection is busy, requests wait in the generator
// and that wait counts in their latency. It returns once every request has
// completed or ctx is done (remaining requests then fail with ctx.Err()).
func runOpenLoop(ctx context.Context, sched []slot, conns int, send func(ctx context.Context, kase int) error) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				s := sched[i]
				o := outcome{kase: s.kase, due: s.due}
				if wait := s.due - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				o.sent = time.Since(start)
				if err := ctx.Err(); err != nil {
					o.err = err
				} else {
					o.err = send(ctx, s.kase)
				}
				o.done = time.Since(start)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// backlogAtEnd counts the requests that had not yet been sent when the last
// request of the schedule fell due. A system that keeps up leaves at most
// the in-flight requests behind; one that falls behind leaves a queue that
// grows with the length of the step.
func backlogAtEnd(res []outcome) int {
	if len(res) == 0 {
		return 0
	}
	lastDue := res[len(res)-1].due
	n := 0
	for _, o := range res {
		if o.sent > lastDue {
			n++
		}
	}
	return n
}
