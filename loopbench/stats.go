package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, and how many samples lie beyond it. A percentile
// with fewer than minBeyond samples beyond it must not be reported. xs
// is sorted in place.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	rank = max(0, min(rank, len(xs)-1))
	return xs[rank], len(xs) - 1 - rank
}

// windowP99 splits lat, in the order the requests were made, into
// consecutive windows of window samples (a leftover shorter window joins
// the last one) and returns the median of the windows' p99s and how many
// windows there were. Each window must hold at least 100*minBeyond
// samples, so every p99 has minBeyond samples beyond it. A host stall
// of a fraction of a second lifts the tail of one window; the median
// over windows keeps it from deciding the run's p99.
func windowP99(lat []float64, window int) (p99 float64, windows int) {
	if window < 100*minBeyond || len(lat) < window {
		return 0, 0
	}
	var p99s []float64
	for start := 0; start+window <= len(lat); start += window {
		end := start + window
		if len(lat)-end < window {
			end = len(lat)
		}
		v, _ := percentile(slices.Clone(lat[start:end]), 0.99)
		p99s = append(p99s, v)
	}
	v, _ := percentile(p99s, 0.5)
	return v, len(p99s)
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// window captures whole-process allocation and GC counters at the start
// of a timed window; delta reads them again at its end.
type window struct {
	mallocs, bytes uint64
	numGC          uint32
	gcCPU, allCPU  float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return window{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC,
		gcCPU: cpuSamples[0].Value.Float64(), allCPU: cpuSamples[1].Value.Float64(),
	}
}

// windowDelta is what happened in the process between two reads.
type windowDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcCPUFrac      float64
}

func (w window) delta() windowDelta {
	end := openWindow()
	d := windowDelta{mallocs: end.mallocs - w.mallocs, bytes: end.bytes - w.bytes, gcCycles: end.numGC - w.numGC}
	if cpu := end.allCPU - w.allCPU; cpu > 0 {
		d.gcCPUFrac = (end.gcCPU - w.gcCPU) / cpu
	}
	return d
}

// heapSampler reads the live heap the latest collection marked, every
// 100 ms until stopped. The program's caches fill and reset as work
// goes by, so one reading at the end of a window depends on where in
// that cycle the window stopped; the median of the readings does not.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var mib []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			mib = append(mib, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				h.done <- mib
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// medianMiB stops the sampler and returns the median reading.
func (h *heapSampler) medianMiB() float64 {
	close(h.stop)
	v, _ := percentile(<-h.done, 0.5)
	return v
}

// allocsOf returns the number of heap allocations fn makes. It stops
// the world twice, so only the traced run calls it.
func allocsOf(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
