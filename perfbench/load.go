package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Load is closed loop: each caller issues its next request only after a
// previous one completes (one in flight for synchronous callers, a fixed
// window for asynchronous ones). A measured segment is cut into windows;
// every end-to-end figure is computed per window and reported as the median
// over windows, so a scheduler stall on the shared host moves one window,
// not the result.

// window is the length of one measurement window.
const window = 500 * time.Millisecond

// winSampleCap bounds the latency samples kept per window, shared evenly by
// the callers: twice the fastest rate seen on a 2-vCPU host. The buffers are
// mapped before measuring so that they do not grow, and allocate, while
// measuring.
const winSampleCap = 1 << 18

// sampleBuffers maps room for n latency samples outside the Go heap. The
// runtime does not count the mapping, so mem_peak_mb measures the stack
// under test rather than the benchmark's own samples (40 MB for a 20 s
// run), and pages no sample reaches are never touched.
func sampleBuffers(n int) ([]uint32, func(), error) {
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map latency samples: %w", err)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), func() { _ = syscall.Munmap(b) }, nil
}

// span is one traced request, in nanoseconds since the tracer's epoch.
// HandlerIn/HandlerOut are zero where the benchmark does not own the
// handler; Issued is zero for synchronous calls.
type span struct {
	ID         uint64 `json:"id"`
	Call       int64  `json:"call"`
	Issued     int64  `json:"issued,omitempty"`
	HandlerIn  int64  `json:"handler_in,omitempty"`
	HandlerOut int64  `json:"handler_out,omitempty"`
	Done       int64  `json:"done"`
}

// spanCap bounds the spans kept per caller per segment.
const spanCap = 1 << 16

// recorder collects one caller's outcomes for one segment. Latency samples
// and spans are written by a single goroutine (the caller for synchronous
// calls, the client's receive path for asynchronous ones); counters are
// atomic because issue and completion may run on different goroutines.
type recorder struct {
	start time.Time
	lat   [][]uint32 // per window, nanoseconds
	spans []span

	_         [64]byte // keep the hot counters off the fields above
	completed atomic.Uint64
	attempted atomic.Uint64
	failed    atomic.Uint64
	expired   atomic.Uint64
	wrong     atomic.Uint64
	misses    atomic.Uint64 // kv-mica GET misses after a log wrap
	_         [64]byte
}

// newRecorder returns a recorder whose nwin windows are cut from samples.
func newRecorder(nwin int, samples []uint32, traced bool) *recorder {
	r := &recorder{lat: make([][]uint32, nwin)}
	per := len(samples) / nwin
	for i := range r.lat {
		r.lat[i] = samples[i*per : i*per : (i+1)*per]
	}
	if traced {
		r.spans = make([]span, 0, spanCap)
	}
	return r
}

// done records a completed call issued at t0 and finished at t1; ok is false
// for an error or a wrong output.
func (r *recorder) done(t0, t1 time.Time, ok bool) {
	if !ok {
		r.failed.Add(1)
		return
	}
	r.completed.Add(1)
	w := int(t1.Sub(r.start) / window)
	if w < 0 || w >= len(r.lat) || len(r.lat[w]) == cap(r.lat[w]) {
		return
	}
	d := t1.Sub(t0)
	if d > time.Duration(^uint32(0)) {
		d = time.Duration(^uint32(0))
	}
	r.lat[w] = append(r.lat[w], uint32(d))
}

func (r *recorder) addSpan(s span) {
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	}
}

// caller drives one closed loop until stop is set, then drains.
type caller interface {
	run(rec *recorder, stop *atomic.Bool)
}

// sample is one reading taken at a window boundary.
type sample struct {
	at        time.Time
	cpu       time.Duration // process user+sys
	completed uint64
}

// runtimeReading is a snapshot of the runtime/metrics the per-layer figures
// use. The runtime updates the /cpu/classes figures only when a GC cycle
// ends, so their deltas cover whole GC cycles, not exactly the segment:
// runtime.gc_cpu_frac is exact on a workload that collects often (kv-mica)
// and rough on one that rarely collects.
type runtimeReading struct {
	allocObjs, allocBytes uint64
	gcCPU, busyCPU        float64
	sched                 *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		busyCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
		sched:      s[5].Value.Float64Histogram(),
	}
}

// memSampler reads the live memory: the runtime-mapped memory in use (all of
// it, less the heap pages that are free, whether still mapped or released
// to the OS), with the heap's objects counted as the bytes the last GC found
// live. Garbage awaiting collection is left out: how much of it builds up
// between cycles follows the allocation rate, which swings with the host's
// load, rather than the memory the stack needs.
type memSampler []metrics.Sample

func newMemSampler() memSampler {
	return memSampler{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
}

func (m memSampler) read() uint64 {
	metrics.Read(m)
	return m[0].Value.Uint64() - m[1].Value.Uint64() - m[2].Value.Uint64() - m[3].Value.Uint64() + m[4].Value.Uint64()
}

// memPoll is how often memory is sampled between window boundaries.
const memPoll = 20 * time.Millisecond

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// segment is the outcome of one measured stretch of closed-loop load.
type segment struct {
	recs    []*recorder // latency samples are unmapped once win is computed
	samples []sample
	win     []windowStats
	memPeak uint64 // largest live memory sampled (see memSampler)
	rt0     runtimeReading
	rt1     runtimeReading
}

// runSegment runs every caller for d, sampling at each window boundary, and
// returns once every caller has drained.
func runSegment(callers []caller, d time.Duration, traced bool) (segment, error) {
	nwin := max(int(d/window), 1)
	seg := segment{recs: make([]*recorder, len(callers))}
	per := winSampleCap / len(callers)
	lat, unmap, err := sampleBuffers(len(callers) * nwin * per)
	if err != nil {
		return seg, err
	}
	defer unmap()
	for i := range callers {
		seg.recs[i] = newRecorder(nwin, lat[i*nwin*per:(i+1)*nwin*per], traced)
	}
	completed := func() uint64 {
		var n uint64
		for _, r := range seg.recs {
			n += r.completed.Load()
		}
		return n
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	seg.rt0 = readRuntime()
	start := time.Now()
	for i, c := range callers {
		seg.recs[i].start = start
		wg.Add(1)
		go func(c caller, r *recorder) {
			defer wg.Done()
			c.run(r, &stop)
		}(c, seg.recs[i])
	}
	mem := newMemSampler()
	for k := 0; k <= nwin; k++ {
		boundary := start.Add(time.Duration(k) * window)
		for {
			seg.memPeak = max(seg.memPeak, mem.read())
			left := time.Until(boundary)
			if left <= 0 {
				break
			}
			time.Sleep(min(left, memPoll))
		}
		seg.samples = append(seg.samples, sample{at: time.Now(), cpu: processCPU(), completed: completed()})
	}
	stop.Store(true)
	wg.Wait()
	seg.rt1 = readRuntime()
	seg.win = seg.windows()
	for _, r := range seg.recs {
		r.lat = nil
	}
	return seg, nil
}

// windowStats are one window's end-to-end figures.
type windowStats struct {
	rps, p50us, p90us, p99us, cpuUS float64
	n                               int
}

// windows computes the per-window figures of a segment. A window with no
// completions is skipped.
func (s segment) windows() []windowStats {
	var out []windowStats
	merged := make([]uint32, 0, winSampleCap)
	for k := 1; k < len(s.samples); k++ {
		a, b := s.samples[k-1], s.samples[k]
		done := float64(b.completed - a.completed)
		if done == 0 {
			continue
		}
		merged = merged[:0]
		for _, r := range s.recs {
			merged = append(merged, r.lat[k-1]...)
		}
		sortU32(merged)
		out = append(out, windowStats{
			rps:   done / b.at.Sub(a.at).Seconds(),
			p50us: float64(percentile(merged, 50)) / 1e3,
			p90us: float64(percentile(merged, 90)) / 1e3,
			p99us: float64(percentile(merged, 99)) / 1e3,
			cpuUS: float64(b.cpu-a.cpu) / 1e3 / done,
			n:     len(merged),
		})
	}
	return out
}

// totals sums the callers' outcome counters.
func (s segment) totals() (t totals) {
	for _, r := range s.recs {
		t.attempted += r.attempted.Load()
		t.completed += r.completed.Load()
		t.failed += r.failed.Load()
		t.expired += r.expired.Load()
		t.wrong += r.wrong.Load()
		t.misses += r.misses.Load()
	}
	return t
}

// totals are a segment's outcome counts.
type totals struct{ attempted, completed, failed, expired, wrong, misses uint64 }

func (t *totals) add(o totals) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.failed += o.failed
	t.expired += o.expired
	t.wrong += o.wrong
	t.misses += o.misses
}
