package main

import (
	"math/rand"
	"time"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/serve"
)

// openLoopResult is what the open-loop classify client measured.
type openLoopResult struct {
	// latMS holds every successful request's latency in ms, from its
	// scheduled arrival or, if the client overslept that arrival, from
	// when it woke.
	latMS            []float64
	requests, errors int
	// lateMS is how late the client sent a request it was idle for, beyond
	// the scheduled arrival: the lag of the arrival generator itself.
	lateMS float64
	// maxQueue is the most arrivals that were due but not yet sent.
	maxQueue int
}

// openLoop classifies batches of queries on one connection at Poisson
// arrivals of the given rate until dur has passed. Arrivals follow the
// schedule whatever the server does; a request waits for the one before it,
// and its latency counts from its scheduled arrival, so a stall shows in the
// latencies of every request due during it.
//
// The one delay that is not the server's is the client's own: a sleep
// until the next arrival ends late, by a median 0.7 ms in an idle Go 1.24
// process on Linux. Counted as latency, that wake-up lag made up most of
// the 0.65 ms median the client measured at 4000 requests/s. So a request
// the client slept for, and every request that fell due while it slept,
// counts from the wake-up.
//
// serve.RunLoad runs the same open loop but reports latency through a
// histogram whose factor-2 buckets made p99 jump twofold between runs, and
// keeps no record of how late it ran; this client keeps every sample.
func openLoop(addr string, queries []geom.Point, rate float64, seed int64, dur time.Duration) *openLoopResult {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration // arrival offsets from the start
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t > dur {
			break
		}
		due = append(due, t)
	}
	start := time.Now()
	res := &openLoopResult{latMS: make([]float64, 0, len(due))}
	batch := make([]geom.Point, classifyBatch)
	var c *serve.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	var woke time.Time
	for i, off := range due {
		at := start.Add(off)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
			woke = time.Now()
			res.lateMS = max(res.lateMS, ms(woke.Sub(at)))
		}
		from := at
		if woke.After(at) {
			from = woke
		}
		queued := 0
		for now := time.Since(start); i+queued < len(due) && due[i+queued] <= now; queued++ {
		}
		res.maxQueue = max(res.maxQueue, queued)
		for j := range batch {
			batch[j] = queries[(i*classifyBatch+j)%len(queries)]
		}
		res.requests++
		if c == nil {
			var err error
			if c, err = serve.Dial(addr, ioTimeout); err != nil {
				res.errors++
				continue
			}
		}
		if _, _, err := c.ClassifyBatch(batch); err != nil {
			res.errors++
			c.Close()
			c = nil
			continue
		}
		res.latMS = append(res.latMS, ms(time.Since(from)))
	}
	return res
}
