package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// genLateLimit is the generator lateness (p99) past which an open-loop run
// is invalid rather than slow: the schedule was not the one asked for. The
// p99 is taken like the gated p99, as the median over the slices of the
// window: a stall of the machine that falls into a few slices moves neither
// the metrics nor the verdict on the schedule that produced them.
const genLateLimit = 5 * time.Millisecond

// poissonSchedule returns due times (offsets from the start) of a Poisson
// arrival process at rate per second, up to span.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// fixedSchedule returns due times evenly spaced at rate per second.
func fixedSchedule(rate float64, span time.Duration) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	due := make([]time.Duration, 0, int(span/gap)+1)
	for d := gap; d < span; d += gap {
		due = append(due, d)
	}
	return due
}

// openLoopStats reports how faithfully the generator kept its schedule.
type openLoopStats struct {
	late         sliced // issue time minus due time
	issued       uint64
	peakInflight int64
}

func (s *openLoopStats) lateP99us() float64 { return s.late.quantile(0.99) / 1e3 }
func (s *openLoopStats) valid() bool {
	return time.Duration(s.late.quantile(0.99)) <= genLateLimit
}

// runOpenLoop issues op(i, due) for every due[i] on an absolute-deadline
// schedule anchored at start: a late wake-up delays no later deadline, so
// the schedule cannot drift, and op is handed the time it was due — callers
// time latency from that, which charges a stall of the target to every op
// that was due during it. Each op runs on its own goroutine (it parks on an
// ack, not on a CPU); runOpenLoop returns once all have finished.
func runOpenLoop(start time.Time, due []time.Duration, op func(i int, due time.Time)) *openLoopStats {
	st := &openLoopStats{}
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(due))
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		st.late[sliceOf(i, len(due))].record(int64(time.Since(at)))
		st.issued++
		if n := inflight.Add(1); n > peak.Load() {
			peak.Store(n) // only this goroutine raises it
		}
		go func() {
			defer wg.Done()
			op(i, at)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	st.peakInflight = peak.Load()
	return st
}
