// Command perfbench is the repository benchmark for the functional Go RPC
// stack (core, fabric, wire, ringbuf, kvs/mica, transport). It builds one
// workload's stack through the packages' public APIs, drives it with
// closed-loop callers from this process, checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	perfbench --workload echo-lockstep --seed 1 --seconds 10 --trace 0
//
// Human-readable report lines and the environment precede the result line.
// The program exits non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dagger/internal/metrics"
	"dagger/internal/wire"
)

// errNoWorkload reports an unknown --workload name.
var errNoWorkload = errors.New("unknown workload")

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// prepare makes the workload's inputs from the seed and returns the
	// builder that set-up times; making inputs is not set-up.
	prepare   func(seed int64) builder
	setupReps int
	// procs, when set, is the GOMAXPROCS the workload runs with.
	procs int
	// payloads returns request payloads the workload sends, for the probes.
	payloads func(seed int64) [][]byte
}

const probePayloads = 4096

// workloads are the workloads the program runs. BENCHMARK.json lists all but
// echo-lockstep. On the shared 2-vCPU VM it was tuned on, its per-RPC time
// switches between two levels (p50 near 2.8 us and near 4.1 us) for seconds
// to minutes at a time, while a CPU-bound calibration loop holds steady. The
// spread of its run medians reached 0.2-0.4, more than the largest bound a
// benchmark may set. It stays runnable for its traced layer breakdown, and
// kv-mica runs the same fixed in-process path.
var workloads = []workloadDef{
	{
		name:      "echo-lockstep",
		prepare:   prepareEchoLockstep,
		setupReps: 9,
		// One caller's call chain is sequential, so one P runs it. A second
		// P adds only cross-CPU wake-ups, whose cost swings with the host's
		// load and would swamp the per-RPC path this workload measures.
		procs: 1,
		payloads: func(seed int64) [][]byte {
			return echoPayloads(seed, func(int) int { return echoPayload })
		},
	},
	{
		name:      "kv-mica",
		prepare:   prepareKVMica,
		setupReps: 7,
		payloads: func(seed int64) [][]byte {
			ops := kvOpSeq(callerSeed(seed, 0), probePayloads)
			out := make([][]byte, len(ops))
			for i, op := range ops {
				e := wire.NewEncoder(nil)
				e.Bytes16(kvKey(nil, op.rec()))
				if op.set() {
					e.Bytes16(kvValue(make([]byte, kvDataset.ValueSize), op.rec(), 1))
				}
				out[i] = e.Bytes()
			}
			return out
		},
	},
	{
		name:      "udp-mix",
		prepare:   prepareUDPMix,
		setupReps: 25,
		payloads: func(seed int64) [][]byte {
			sizes := sizeSeq(callerSeed(seed, 0), probePayloads)
			out := echoPayloads(seed, func(i int) int { return sizes[i].req })
			pattern := newPattern(seed)
			for i, p := range out {
				fillRequest(p, pattern, uint64(i), sizes[i].rsp)
			}
			return out
		},
	},
}

func echoPayloads(seed int64, size func(int) int) [][]byte {
	pattern := newPattern(seed)
	out := make([][]byte, probePayloads)
	for i := range out {
		out[i] = make([]byte, size(i))
		fillEcho(out[i], pattern, uint64(i))
	}
	return out
}

// metric is a per-layer metric and the end-to-end metric it should move.
type metric struct {
	name, unit, moves string
}

// endMetric is an end-to-end metric; the result line carries it when gated.
type endMetric struct {
	name, unit string
	gated      bool
}

// endToEnd are printed by every run. The result line carries fail_frac as
// failed/attempted. lat_p99_us is not gated because on a shared 2-vCPU host
// its udp-mix run-to-run spread exceeds any bound the benchmark may set.
var endToEnd = []endMetric{
	{name: "rps", unit: "1/s", gated: true},
	{name: "lat_p50_us", unit: "us", gated: true},
	{name: "lat_p90_us", unit: "us", gated: true},
	{name: "lat_p99_us", unit: "us"},
	{name: "cpu_us_per_rpc", unit: "us", gated: true},
	{name: "fail_frac", unit: "frac"},
	{name: "mem_peak_mb", unit: "MB", gated: true},
	{name: "setup_s", unit: "s", gated: true},
}

const (
	echoMoves = "echo-lockstep lat_p50_us, cpu_us_per_rpc (gated: kv-mica cpu_us_per_rpc); little on udp-mix"
	kvMoves   = "kv-mica rps, cpu_us_per_rpc; none on echo-lockstep and udp-mix"
	udpMoves  = "udp-mix rps, cpu_us_per_rpc"
	allocMove = "kv-mica lat_p99_us, cpu_us_per_rpc"
)

// perLayer are the traced run's metrics measured on every workload, each
// with the end-to-end metric it is predicted to move.
var perLayer = []metric{
	{"wire.marshal_ns", "ns", echoMoves},
	{"wire.unmarshal_ns", "ns", echoMoves},
	{"wire.checksum_ns", "ns", echoMoves},
	{"ringbuf.ring_pushpop_ns", "ns", echoMoves},
	{"ringbuf.pool_getput_ns", "ns", echoMoves},
	{"fabric.send_recv_ns", "ns", echoMoves},
	{"codec.encode_ns", "ns", kvMoves},
	{"codec.decode_ns", "ns", kvMoves},
	{"codec.allocs_per_op", "count", kvMoves},
	{"kvs.mica_get_ns", "ns", kvMoves},
	{"kvs.mica_set_ns", "ns", kvMoves},
	{"wire.reassemble_ns_per_kb", "ns/KB", udpMoves},
	{"transport.reliable_oneway_us", "us", udpMoves},
	{"fabric.drop_frac", "frac", "fail_frac"},
	{"core.late_frac", "frac", "fail_frac"},
	{"transport.retransmit_frac", "frac", "fail_frac"},
	{"ringbuf.loans_per_rpc", "count", "cpu_us_per_rpc"},
	{"fabric.bytes_per_rpc", "B", "cpu_us_per_rpc"},
	{"transport.datagrams_per_rpc", "count", "udp-mix rps; batching must lower it"},
	{"transport.duplicate_frac", "frac", "udp-mix rps"},
	{"runtime.allocs_per_rpc", "count", allocMove},
	{"runtime.alloc_bytes_per_rpc", "B", allocMove},
	{"runtime.gc_cpu_frac", "frac", allocMove},
	{"runtime.sched_wait_p50_us", "us", "echo-lockstep, kv-mica lat_p50_us"},
	{"runtime.sched_wait_p99_us", "us", "echo-lockstep, kv-mica lat_p50_us"},
	{"trace.overhead_frac", "frac", "none; the cost of tracing itself"},
}

// spanMetrics come from spans through the benchmark's own handlers, so
// they exist on echo-lockstep and udp-mix only and are printed in the report.
var spanMetrics = []metric{
	{"core.request_path_p50_us", "us", "echo-lockstep, udp-mix lat_p50_us"},
	{"core.request_path_p99_us", "us", "echo-lockstep, udp-mix lat_p99_us"},
	{"core.response_path_p50_us", "us", "echo-lockstep, udp-mix lat_p50_us"},
	{"core.response_path_p99_us", "us", "echo-lockstep, udp-mix lat_p99_us"},
	{"core.issue_p50_us", "us", "udp-mix lat_p50_us (asynchronous calls only)"},
	{"app.handler_p50_us", "us", "echo-lockstep, udp-mix lat_p50_us"},
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type envOut struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Sleep10usTakes float64 `json:"sleep_10us_takes_us"`
	UDP            string  `json:"udp"`
	Load           string  `json:"load"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "echo-lockstep | kv-mica | udp-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	spansPath := flag.String("spans", "", "file to write traced spans to (JSON lines)")
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: %v: %q (seconds %d, trace %d)\n", errNoWorkload, *name, *seconds, *traced)
		return 2
	}
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	printJSON(map[string]any{"env": recordEnv()})

	b := &bench{wl: wl, seed: *seed, tr: newTracer()}
	res, err := b.run(time.Duration(*seconds)*time.Second, *traced == 1, *spansPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode output:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func recordEnv() envOut {
	const n = 20
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		time.Sleep(10 * time.Microsecond)
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return envOut{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Sleep10usTakes: median(d),
		UDP:            "udp-mix and the transport probe cross the host loopback (127.0.0.1), not a real link",
		Load:           "closed loop from one process; callers <= nproc",
	}
}

// bench runs one workload.
type bench struct {
	wl   *workloadDef
	seed int64
	tr   *tracer
}

// setUp makes the workload's inputs, then builds the stack wl.setupReps
// times and returns the last one with the median set-up time: build
// (including any store prepopulation), connect, and warm-up calls until the
// stack has completed warmCalls RPCs.
func (b *bench) setUp() (*stack, float64, error) {
	build := b.wl.prepare(b.seed)
	var times []float64
	var st *stack
	for r := 0; r < b.wl.setupReps; r++ {
		t0 := time.Now()
		s, err := build(b.tr)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if failed := warmUp(s.callers, warmCalls); failed > 0 {
			s.close()
			return nil, 0, fmt.Errorf("set-up: %d warm-up calls failed", failed)
		}
		times = append(times, time.Since(t0).Seconds())
		if r == b.wl.setupReps-1 {
			st = s
			break
		}
		s.close()
		if err := s.checkLoans(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		// Collect the torn-down stack outside the timing, so the next
		// build does not pay for this one's garbage.
		runtime.GC()
	}
	fmt.Printf("set-up times (s): %.4f\n", times)
	return st, median(times), nil
}

// leadIn is the unmeasured load run before measuring.
const leadIn = time.Second

// warmCalls is the number of RPCs a stack completes before it counts as
// set up.
const warmCalls = 2000

// warmUp drives the callers until they complete calls RPCs and returns the
// number that failed.
func warmUp(callers []caller, calls uint64) uint64 {
	recs := make([]*recorder, len(callers))
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range callers {
		recs[i] = &recorder{start: start}
		wg.Add(1)
		go func(c caller, r *recorder) {
			defer wg.Done()
			c.run(r, &stop)
		}(c, recs[i])
	}
	for {
		var done uint64
		for _, r := range recs {
			done += r.completed.Load() + r.failed.Load()
		}
		if done >= calls {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	var failed uint64
	for _, r := range recs {
		failed += r.failed.Load()
	}
	return failed
}

func (b *bench) run(d time.Duration, traced bool, spansPath string) (*resultOut, error) {
	st, setupS, err := b.setUp()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	// An unmeasured lead-in lets the heap and the transport settle after the
	// collection above.
	if _, err := runSegment(st.callers, leadIn, false); err != nil {
		st.close()
		return nil, err
	}

	before := st.snapshot()
	var segs []segment
	var tracedSegs []int
	// Untraced and traced segments alternate in a traced run, so the
	// tracing overhead is measured under the same conditions.
	nsegs, segLen := 1, d
	if traced {
		nsegs, segLen = 4, d/4
	}
	for i := 0; i < nsegs; i++ {
		on := traced && i%2 == 1
		b.tr.on.Store(on)
		seg, err := runSegment(st.callers, segLen, on)
		if err != nil {
			st.close()
			return nil, err
		}
		segs = append(segs, seg)
		if on {
			tracedSegs = append(tracedSegs, i)
		}
	}
	b.tr.on.Store(false)
	delta := st.snapshot().Delta(before)
	st.close()
	checkErr := st.checkLoans()

	res := &resultOut{Metrics: map[string]valueOut{}}
	var tot totals
	for _, s := range segs {
		tot.add(s.totals())
	}
	res.Attempted, res.Failed = tot.attempted, tot.failed
	failFrac := safeDiv(float64(res.Failed), float64(res.Attempted))
	fmt.Printf("workload %s seed %d: attempted %d completed %d failed %d (expired %d, wrong %d); kv misses after log wrap %d\n",
		b.wl.name, b.seed, tot.attempted, tot.completed, tot.failed, tot.expired, tot.wrong, tot.misses)
	if res.Failed > 0 && checkErr == nil {
		checkErr = fmt.Errorf("%d of %d calls failed", res.Failed, res.Attempted)
	}
	if res.Attempted == 0 && checkErr == nil {
		checkErr = errors.New("no call was attempted")
	}

	if !traced {
		win := segs[0].win
		e2e := endToEndValues(win, segs[0].memPeak, setupS, failFrac)
		for _, m := range endToEnd {
			v := e2e[m.name]
			fmt.Printf("  %-28s %14.4f %s\n", m.name, v, m.unit)
			if m.gated {
				res.Metrics[m.name] = valueOut{Value: v, Unit: m.unit}
			}
		}
		n := 0
		for _, w := range win {
			n += w.n
		}
		fmt.Printf("  latency percentiles are medians over %d windows of %d samples in all\n", len(win), n)
	} else {
		vals, spanVals, err := b.layerValues(segs, tracedSegs, delta, tot.completed)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			fmt.Printf("  %-28s %14.4f %-6s moves %s\n", m.name, vals[m.name], m.unit, m.moves)
			res.Metrics[m.name] = valueOut{Value: vals[m.name], Unit: m.unit}
		}
		for _, m := range spanMetrics {
			if v, ok := spanVals[m.name]; ok {
				fmt.Printf("  %-28s %14.4f %-6s moves %s\n", m.name, v, m.unit, m.moves)
			}
		}
		fmt.Printf("  %-28s %14.4f %s\n", "fail_frac", failFrac, "frac")
		if spansPath != "" {
			if err := writeSpans(spansPath, segs, tracedSegs); err != nil {
				return nil, err
			}
		}
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", k)
		}
	}
	res.Correct = checkErr == nil
	return res, checkErr
}

// endToEndValues computes the end-to-end metrics: medians over windows.
func endToEndValues(win []windowStats, memPeak uint64, setupS, failFrac float64) map[string]float64 {
	col := func(f func(windowStats) float64) float64 {
		xs := make([]float64, len(win))
		for i, w := range win {
			xs[i] = f(w)
		}
		return median(xs)
	}
	return map[string]float64{
		"rps":            col(func(w windowStats) float64 { return w.rps }),
		"lat_p50_us":     col(func(w windowStats) float64 { return w.p50us }),
		"lat_p90_us":     col(func(w windowStats) float64 { return w.p90us }),
		"lat_p99_us":     col(func(w windowStats) float64 { return w.p99us }),
		"cpu_us_per_rpc": col(func(w windowStats) float64 { return w.cpuUS }),
		"fail_frac":      failFrac,
		"mem_peak_mb":    float64(memPeak) / (1 << 20),
		"setup_s":        setupS,
	}
}

// layerValues computes the per-layer metrics of a traced run.
func (b *bench) layerValues(segs []segment, tracedSegs []int, delta metrics.Snapshot, completed uint64) (map[string]float64, map[string]float64, error) {
	probes, err := runProbes(b.wl.payloads(b.seed), kvOpSeq(callerSeed(b.seed, 0), 1<<16))
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	vals := probes
	perRPC := func(suffix string) float64 {
		return safeDiv(float64(sumSuffix(delta, suffix)), float64(completed))
	}
	vals["fabric.drop_frac"] = perRPC("drop.rx.ring")
	vals["core.late_frac"] = perRPC("call.late")
	vals["transport.retransmit_frac"] = perRPC("reliable.retransmits")
	vals["ringbuf.loans_per_rpc"] = perRPC("pool.gets")
	vals["fabric.bytes_per_rpc"] = perRPC("bytes.out")
	vals["transport.datagrams_per_rpc"] = perRPC("udp.sent")
	vals["transport.duplicate_frac"] = perRPC("reliable.duplicates")

	var objs, bytes uint64
	var gc, busy float64
	var sched []float64 // bucket count deltas, summed over segments
	var bounds []float64
	for _, s := range segs {
		objs += s.rt1.allocObjs - s.rt0.allocObjs
		bytes += s.rt1.allocBytes - s.rt0.allocBytes
		gc += s.rt1.gcCPU - s.rt0.gcCPU
		busy += s.rt1.busyCPU - s.rt0.busyCPU
		h0, h1 := s.rt0.sched, s.rt1.sched
		if sched == nil {
			sched, bounds = make([]float64, len(h1.Counts)), h1.Buckets
		}
		for i := range h1.Counts {
			sched[i] += float64(h1.Counts[i] - h0.Counts[i])
		}
	}
	vals["runtime.allocs_per_rpc"] = safeDiv(float64(objs), float64(completed))
	vals["runtime.alloc_bytes_per_rpc"] = safeDiv(float64(bytes), float64(completed))
	vals["runtime.gc_cpu_frac"] = safeDiv(gc, busy)
	vals["runtime.sched_wait_p50_us"] = histQuantile(sched, bounds, 0.50) * 1e6
	vals["runtime.sched_wait_p99_us"] = histQuantile(sched, bounds, 0.99) * 1e6

	rps := func(idx []int) float64 {
		var xs []float64
		for _, i := range idx {
			for _, w := range segs[i].win {
				xs = append(xs, w.rps)
			}
		}
		return median(xs)
	}
	untraced := []int{}
	for i := range segs {
		if i%2 == 0 {
			untraced = append(untraced, i)
		}
	}
	ru := rps(untraced)
	vals["trace.overhead_frac"] = safeDiv(ru-rps(tracedSegs), ru)

	return vals, spanValues(segs, tracedSegs), nil
}

// histQuantile returns the upper bound of the bucket holding quantile q of
// a runtime/metrics histogram (the lower bound for the open last bucket).
func histQuantile(counts, bounds []float64, q float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := math.Ceil(q * total)
	var seen float64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if math.IsInf(bounds[i+1], 1) {
				return bounds[i]
			}
			return bounds[i+1]
		}
	}
	return bounds[len(bounds)-1]
}

// spanValues computes the span metrics from the traced segments' spans.
func spanValues(segs []segment, tracedSegs []int) map[string]float64 {
	var req, resp, handler, issue []uint32
	clamp := func(ns int64) uint32 { return uint32(min(max(ns, 0), math.MaxUint32)) }
	for _, i := range tracedSegs {
		for _, r := range segs[i].recs {
			for _, s := range r.spans {
				if s.HandlerIn == 0 {
					continue
				}
				req = append(req, clamp(s.HandlerIn-s.Call))
				resp = append(resp, clamp(s.Done-s.HandlerOut))
				handler = append(handler, clamp(s.HandlerOut-s.HandlerIn))
				if s.Issued != 0 {
					issue = append(issue, clamp(s.Issued-s.Call))
				}
			}
		}
	}
	out := map[string]float64{}
	if len(req) == 0 {
		return out
	}
	for _, s := range [][]uint32{req, resp, handler, issue} {
		sortU32(s)
	}
	us := func(s []uint32, p float64) float64 { return float64(percentile(s, p)) / 1e3 }
	out["core.request_path_p50_us"] = us(req, 50)
	out["core.request_path_p99_us"] = us(req, 99)
	out["core.response_path_p50_us"] = us(resp, 50)
	out["core.response_path_p99_us"] = us(resp, 99)
	out["app.handler_p50_us"] = us(handler, 50)
	if len(issue) > 0 {
		out["core.issue_p50_us"] = us(issue, 50)
	}
	return out
}

// maxSpansWritten caps the spans file.
const maxSpansWritten = 50_000

// writeSpans writes the traced segments' spans as JSON lines, ordered by
// call start.
func writeSpans(path string, segs []segment, tracedSegs []int) error {
	var all []span
	for _, i := range tracedSegs {
		for _, r := range segs[i].recs {
			all = append(all, r.spans...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Call < all[j].Call })
	if len(all) > maxSpansWritten {
		all = all[:maxSpansWritten]
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
