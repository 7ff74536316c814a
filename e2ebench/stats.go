package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must rank beyond a reported tail.
const minBeyond = 10

// percentileRank returns the 1-based nearest rank of the p-th percentile of
// n samples. The small slack keeps p·n/100 from rounding up past an exact
// integer rank.
func percentileRank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailCap is the highest percentile a tail is reported at: the upper
// quartile. On a 2-vCPU virtual machine whose hypervisor took between 0%
// and 31% of its CPU time from one run to the next, higher percentiles
// followed the stolen share rather than the program: over three runs at
// 4-10% steal the stream's classify p90 spread by 0.40 of its median while
// its p75 spread by 0.10, and over ten runs its p99 had spread by a quarter
// of its median.
const tailCap = 75

// tailRank returns the 1-based rank of the tail of n sorted samples: the
// highest rank, capped at the tailCap percentile, with at least minBeyond
// samples beyond it. With too few samples for any rank above the median to
// qualify, the tail is the median.
func tailRank(n int) int {
	return max(min(percentileRank(n, tailCap), n-minBeyond), percentileRank(n, 50))
}

// summary is a distribution reduced to a median and a tail.
type summary struct {
	P50, Tail float64
	// TailPct is the percentile Tail was taken at; N the sample count.
	TailPct float64
	N       int
}

// summarize reduces samples (any unit) to their median and tail.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{P50: math.NaN(), Tail: math.NaN()}
	}
	r := tailRank(n)
	return summary{P50: s[percentileRank(n, 50)-1], Tail: s[r-1], TailPct: 100 * float64(r) / float64(n), N: n}
}

// median is the 50th percentile of samples.
func median(samples []float64) float64 {
	return summarize(samples).P50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the peak live heap while armed: the largest heap the
// garbage collector found live at the end of a cycle. Unlike the in-use
// heap, it does not depend on how far the collector lagged at the moment
// of sampling. The runtime metric reads without stopping the world.
type heapSampler struct {
	armed atomic.Bool
	peak  atomic.Uint64
	stop  chan struct{}
	wg    sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			if !h.armed.Load() {
				continue
			}
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
		}
	}()
	return h
}

// arm starts or pauses sampling; only the measured phase is sampled.
func (h *heapSampler) arm(on bool) { h.armed.Store(on) }

// close stops the sampler and returns the peak in MiB.
func (h *heapSampler) close() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}
