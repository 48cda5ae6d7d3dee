package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

var epoch = time.Now()

// now is a monotonic nanosecond clock shared by every probe.
func now() int64 { return int64(time.Since(epoch)) }

// hist is a log-bucketed latency histogram: bucket i holds durations in
// [g^i, g^(i+1)) ns with g = 1.005, so a quantile is resolved to 0.5% and
// memory stays fixed however many samples a run records. Within a bucket
// the quantile is interpolated by rank.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histGrowth  = 1.005
	histBuckets = 5200 // covers 1 ns .. ~180 s
)

var histLogG = math.Log(histGrowth)

func (h *hist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(float64(ns)) / histLogG)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo := math.Exp(float64(i) * histLogG)
			frac := (rank - float64(seen) + 0.5) / float64(c)
			return lo * math.Pow(histGrowth, frac)
		}
		seen += c
	}
	return math.Exp(float64(histBuckets) * histLogG)
}

// beyond is how many samples lie above the q-quantile.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// phaseStats is what a measured phase cost the process.
type phaseStats struct {
	wall       time.Duration
	cpu        time.Duration // user+sys
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcCPU      float64 // seconds of GC CPU (runtime/metrics)
	busyCPU    float64 // seconds of non-idle CPU (runtime/metrics)
	heapPeak   uint64  // p95 over the phase's GC cycles of the live heap
}

// meter measures one phase: wall clock, process CPU, allocations, GC,
// and the heap's high-water mark. A background goroutine polls every 5 ms
// and records the live heap each completed GC cycle marked; the phase's
// heap figure is the 95th percentile over those cycles. The single
// highest cycle, or the heap including garbage awaiting collection,
// swings with GC timing on a shared host; the p95 over hundreds of cycles
// tracks what the program holds.
type meter struct {
	start     time.Time
	cpu0      time.Duration
	ms0       runtime.MemStats
	rm0       [3]float64
	stop      chan struct{}
	wg        sync.WaitGroup
	samples   []metrics.Sample
	lastCycle uint64
	live      []float64 // live heap bytes, one per observed GC cycle
}

var runtimeCPUMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPUMetrics() [3]float64 {
	s := make([]metrics.Sample, len(runtimeCPUMetrics))
	for i, n := range runtimeCPUMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter collects garbage left by set-up, then starts the clocks.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{})}
	m.samples = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	runtime.ReadMemStats(&m.ms0)
	m.rm0 = readCPUMetrics()
	m.cpu0 = processCPU()
	m.start = time.Now()
	m.sampleHeap()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sampleHeap()
			}
		}
	}()
	return m
}

// sampleHeap records the live heap once per GC cycle. It runs on the
// sampler goroutine only (and before it starts and after it stops).
func (m *meter) sampleHeap() {
	metrics.Read(m.samples)
	if m.samples[0].Value.Kind() != metrics.KindUint64 || m.samples[1].Value.Kind() != metrics.KindUint64 {
		return
	}
	if c := m.samples[0].Value.Uint64(); c != m.lastCycle || len(m.live) == 0 {
		m.lastCycle = c
		m.live = append(m.live, float64(m.samples[1].Value.Uint64()))
	}
}

func (m *meter) end() phaseStats {
	wall := time.Since(m.start)
	cpu := processCPU() - m.cpu0
	close(m.stop)
	m.wg.Wait()
	m.sampleHeap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rm := readCPUMetrics()
	return phaseStats{
		wall:       wall,
		cpu:        cpu,
		mallocs:    ms.Mallocs - m.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms0.TotalAlloc,
		numGC:      ms.NumGC - m.ms0.NumGC,
		gcCPU:      rm[0] - m.rm0[0],
		busyCPU:    (rm[1] - m.rm0[1]) - (rm[2] - m.rm0[2]),
		heapPeak:   uint64(quantile(m.live, 0.95)),
	}
}

// A measured phase is cut into consecutive blocks of at least
// blockSeconds and blockMinVerdicts (so each block's p99 has at least ten
// samples beyond it). Every time-based end-to-end metric is the median
// over blocks: a few seconds of lost vCPU on a shared host spoil one
// block, not the run.
const (
	blockSeconds     = 1.0
	blockMinVerdicts = 2000
)

type blockStat struct {
	wall, cpu float64 // seconds
	verdicts  int
	p50, p99  float64 // ns
	n, beyond uint64
}

// blocker accumulates the current block and the closed ones.
type blocker struct {
	start    time.Time
	cpu0     time.Duration
	verdicts int
	lat      hist
	closed   []blockStat
}

func newBlocker() *blocker {
	b := &blocker{}
	b.open()
	return b
}

func (b *blocker) open() {
	b.start, b.cpu0, b.verdicts = time.Now(), processCPU(), 0
	b.lat = hist{}
}

// closeIfDue ends the current block when it is long and large enough, or
// unconditionally when force is set, and reports whether it did.
func (b *blocker) closeIfDue(force bool) bool {
	wall := time.Since(b.start).Seconds()
	if !force && (wall < blockSeconds || b.verdicts < blockMinVerdicts) {
		return false
	}
	b.closed = append(b.closed, blockStat{
		wall: wall, cpu: (processCPU() - b.cpu0).Seconds(), verdicts: b.verdicts,
		p50: b.lat.quantile(0.50), p99: b.lat.quantile(0.99), n: b.lat.n, beyond: b.lat.beyond(0.99),
	})
	b.open()
	return true
}

func (b *blocker) median(f func(blockStat) float64) float64 {
	xs := make([]float64, len(b.closed))
	for i, s := range b.closed {
		xs[i] = f(s)
	}
	return median(xs)
}

// verdictRate is the median block's verdicts per second.
func (b *blocker) verdictRate() float64 {
	return b.median(func(s blockStat) float64 { return float64(s.verdicts) / s.wall })
}

// endToEnd fills the end-to-end metrics every workload shares from one
// measured phase: set-up time, the per-block medians of throughput and
// CPU per verdict, and the phase's allocation and heap totals.
func endToEnd(rep *report, ps phaseStats, bl *blocker, verdicts int, setupS float64) {
	v := float64(verdicts)
	rep.set("setup_s", "s", setupS)
	rep.set("verdicts_per_s", "1/s", bl.verdictRate())
	rep.set("cpu_ms_per_verdict", "ms", bl.median(func(s blockStat) float64 { return 1e3 * s.cpu / float64(s.verdicts) }))
	rep.set("allocs_per_verdict", "count", float64(ps.mallocs)/v)
	rep.set("alloc_kib_per_verdict", "KiB", float64(ps.allocBytes)/1024/v)
	rep.set("heap_peak_mib", "MiB", float64(ps.heapPeak)/(1<<20))
	rates := make([]float64, len(bl.closed))
	for i, s := range bl.closed {
		rates[i] = float64(s.verdicts) / s.wall
	}
	note("timed phase: %.3f s wall, %.3f s cpu, %d verdicts, %d GCs; %d blocks, verdicts/s per block %.0f",
		ps.wall.Seconds(), ps.cpu.Seconds(), verdicts, ps.numGC, len(bl.closed), rates)
}

// blockLatency reports the per-block medians of p50 and p99; each block's
// percentile rests on at least blockMinVerdicts samples.
func blockLatency(rep *report, bl *blocker, pooled *hist) {
	rep.set("verdict_p50_ms", "ms", bl.median(func(s blockStat) float64 { return s.p50 })/1e6)
	rep.set("verdict_p99_ms", "ms", bl.median(func(s blockStat) float64 { return s.p99 })/1e6)
	minN, minBeyond := uint64(0), uint64(0)
	for i, s := range bl.closed {
		if i == 0 || s.n < minN {
			minN, minBeyond = s.n, s.beyond
		}
	}
	note("verdict latency, median over %d blocks: p50 %.4f ms, p99 %.4f ms (smallest block n=%d, %d beyond p99); pooled p50 %.4f ms, p99 %.4f ms (n=%d, %d beyond p99)",
		len(bl.closed), bl.median(func(s blockStat) float64 { return s.p50 })/1e6, bl.median(func(s blockStat) float64 { return s.p99 })/1e6,
		minN, minBeyond, pooled.quantile(0.5)/1e6, pooled.quantile(0.99)/1e6, pooled.n, pooled.beyond(0.99))
	for _, s := range bl.closed {
		if s.beyond < 10 {
			rep.fail("a block's verdict_p99_ms rests on %d samples (%d beyond it); need at least 10 beyond", s.n, s.beyond)
			return
		}
	}
}

// runtimeMetrics reports the GC share of busy CPU and GCs per thousand
// verdicts for an untraced phase.
func runtimeMetrics(rep *report, ps phaseStats, verdicts int) {
	frac := 0.0
	if ps.busyCPU > 0 {
		frac = ps.gcCPU / ps.busyCPU
	}
	rep.set("runtime.gc_cpu_frac", "frac", frac)
	rep.set("runtime.gc_per_kverdict", "count", 1000*float64(ps.numGC)/float64(verdicts))
}

// timeSetup runs build setupReps times and returns the last fixture and
// the median duration in seconds.
func timeSetup[T any](build func() (T, error)) (T, float64, error) {
	var fx T
	durs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := build()
		if err != nil {
			return fx, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		fx = f
	}
	note("set-up: %v s per build, median of %d", durs, setupReps)
	return fx, median(durs), nil
}
