package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one request of a load phase, as offsets from the phase
// start.
type timing struct {
	due, sent, done time.Duration
}

// latency is measured from when the request was due, not from when the
// generator got round to sending it, so a stall charges its wait to
// every request queued behind it.
func (t timing) latency() time.Duration { return t.done - t.due }

// lateness is how long after its due time the request was sent.
func (t timing) lateness() time.Duration { return t.sent - t.due }

// fixedRateSchedule returns the arrival offsets of a fixed rate over d:
// one request every 1/rate, each shifted by a seeded jitter of up to
// half a gap, so that arrivals are not phase-locked to the daemon's own
// periodic work but bursts stay as rare from seed to seed as the rate
// allows.
func fixedRateSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	gap := float64(time.Second) / rate
	var due []time.Duration
	for i := 0; ; i++ {
		off := time.Duration((float64(i) + rng.Float64()/2) * gap)
		if off >= d {
			return due
		}
		due = append(due, off)
	}
}

// openLoop sends request i at due[i] regardless of how earlier requests
// fare, over at most conns concurrent connections. A request that finds
// every connection busy waits in the generator's queue; backlogMax is
// the longest that queue got.
func openLoop(due []time.Duration, conns int, do func(i int)) (times []timing, backlogMax int) {
	times = make([]timing, len(due))
	jobs := make(chan int, len(due)) // sized to the number of sends: dispatch never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				times[i].sent = time.Since(start)
				do(i)
				times[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		times[i].due = d
		backlogMax = max(backlogMax, len(jobs))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return times, backlogMax
}

// closedLoop runs conns callers, each sending its next request as soon
// as the previous one returns, until n requests have been sent or
// maxDur has passed. A fixed amount of work, rather than a fixed time,
// keeps the number of rare costly requests in the phase the same from
// run to run. It returns how many requests were sent and the time they
// took.
func closedLoop(conns, n int, maxDur time.Duration, do func(i int)) (sent int, elapsed time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < maxDur {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), n), time.Since(start)
}

// lateness summarises how far behind its schedule the generator ran.
func lateness(times []timing) dist {
	late := make([]float64, len(times))
	for i, t := range times {
		late[i] = ms(t.lateness())
	}
	return newDist(late)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
