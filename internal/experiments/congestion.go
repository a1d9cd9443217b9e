package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dagger/internal/dataplane"
	"dagger/internal/interconnect"
	"dagger/internal/metrics"
	"dagger/internal/retry"
	"dagger/internal/sim"
	"dagger/internal/stats"
	"dagger/internal/wire"
	"dagger/internal/workload"
)

// The congestion experiment closes the control loop the overload experiment
// leaves open: instead of the server shedding doomed work after its budget
// expires, the server's queue marks requests admitted past half occupancy
// (the ECN-style dataplane.Mark policy stamped into wire frames by both
// substrates) and the client reacts — halving its AIMD in-flight window on
// a marked completion and scaling its retry backoff by the occupancy hint —
// so the queue never grows deep enough to doom work in the first place.

// Congestion-point calibration, all in multiples of the per-request service
// time S so the geometry is interface-independent:
//
//   - the server queue admits up to congQueueCap requests, so the open-loop
//     (unmarked) stack pins the queue at cap and every completion costs
//     ~(cap+1)*S — far past the budget;
//   - marks fire at cap/2 (the dataplane threshold), and the AIMD window
//     cannot exceed congWindowMax, so the closed-loop stack's worst
//     completion costs ~(congWindowMax+1)*S — comfortably inside the budget;
//   - the budget sits between the two: congBudgetServiceMult*S.
const (
	congQueueCap          = 128
	congWindowMax         = 80
	congBudgetServiceMult = 100
)

// CongestionConfig parametrizes one timing-stack congestion point.
type CongestionConfig struct {
	// Iface sets the per-request service time (OverloadServiceTime).
	Iface interconnect.Config
	// OfferedRPS is the open-loop offered load.
	OfferedRPS float64
	// Requests is the number of end-to-end requests to issue.
	Requests int
	// Marked arms the closed loop: queue marks past half occupancy, client
	// AIMD window plus scaled retry backoff. Unmarked runs open-loop.
	Marked bool
	Seed   int64
}

// CongestionResult is one congestion point's measured outcome.
type CongestionResult struct {
	OfferedRPS float64
	// GoodputRPS counts only completions that met the deadline budget,
	// measured from the request's arrival — client-side backoff wait
	// included, so deferring a request does not launder its deadline.
	GoodputRPS float64
	// Latency holds send-to-completion round trips of completed requests
	// (ns): the queueing the ECN loop actually bounds. Client-side backoff
	// wait is excluded here (it is load deferral, not queue latency) but
	// still counts against the deadline budget above.
	Latency   *stats.Histogram
	Completed int
	// Marks counts completions that carried a congestion mark.
	Marks int
	// Refused counts client-side window refusals (each is retried after a
	// scaled backoff until the request's re-anchored budget expires).
	Refused int
	// GaveUp counts requests abandoned client-side when wire.SubBudget
	// reported the re-anchored budget expired before a retry could issue.
	GaveUp int
	// Dropped counts requests refused by the full server queue (only the
	// unmarked open-loop stack ever fills it).
	Dropped int
	// DeadlineMisses counts completions that arrived after the budget.
	DeadlineMisses int
	// FinalWindow is the AIMD window when the run ended (congWindowMax when
	// marking is off: the loop never engages).
	FinalWindow int
}

// MetricsSnapshot renders the point's counters as a metrics snapshot under
// the cross-substrate naming scheme (the congestion point models the client
// loop directly rather than through a NIC, so it has no registry of its
// own). mark.echoed/call.refused match the core client's families.
func (r *CongestionResult) MetricsSnapshot() metrics.Snapshot {
	reg := metrics.New()
	reg.Counter("call.completed").Add(uint64(r.Completed))
	reg.Counter("call.refused").Add(uint64(r.Refused))
	reg.Counter("call.gaveup").Add(uint64(r.GaveUp))
	reg.Counter("mark.echoed").Add(uint64(r.Marks))
	reg.Counter("drop.ring").Add(uint64(r.Dropped))
	reg.Gauge("conn.window").Set(int64(r.FinalWindow))
	return reg.Snapshot()
}

// MedianUs returns the median completed round trip in microseconds.
func (r *CongestionResult) MedianUs() float64 { return float64(r.Latency.Percentile(50)) / 1e3 }

// P99Us returns the 99th-percentile completed round trip in microseconds.
func (r *CongestionResult) P99Us() float64 { return float64(r.Latency.Percentile(99)) / 1e3 }

// congBudgetMicros converts the calibrated budget into the wire header's
// microsecond unit, rounding up so a sub-microsecond service time still
// yields a live (nonzero) budget.
func congBudgetMicros(service sim.Time) uint32 {
	nanos := int64(service) * congBudgetServiceMult
	us := nanos / 1000
	if nanos%1000 != 0 || us == 0 {
		us++
	}
	return uint32(us)
}

// RunCongestionPoint executes one congestion point on the timing stack: one
// server core behind a bounded queue, Poisson open-loop arrivals, and — when
// Marked — the full closed loop (queue marks, AIMD window, scaled backoff,
// saturating budget re-anchor) in virtual time.
func RunCongestionPoint(cfg CongestionConfig) *CongestionResult {
	if cfg.Requests <= 0 {
		cfg.Requests = 50_000
	}
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	arrivals := workload.NewPoissonArrival(rng, cfg.OfferedRPS)

	service := OverloadServiceTime(cfg.Iface)
	budgetMicros := congBudgetMicros(service)
	budgetNanos := sim.Time(budgetMicros) * sim.Microsecond
	serverCore := sim.NewResource(eng, 1)

	res := &CongestionResult{OfferedRPS: cfg.OfferedRPS, Latency: stats.NewHistogram()}
	// Client congestion state, mirroring core.RpcClient's per-connection
	// loop: AIMD window, epoch guard (halve at most once per in-flight
	// window), and the last marked completion's occupancy hint scaling the
	// retry backoff schedule.
	window := congWindowMax
	inflight := 0
	var issuedSeq, completedSeq, epoch uint64
	var lastHint uint8
	if !cfg.Marked {
		// Open loop: the window never binds and marks are not applied.
		window = dataplane.DefaultMaxWindow
	}
	pol := retry.Policy{
		Base: time.Duration(service), Max: time.Duration(64 * service), Multiplier: 2,
	}

	var firstArrival, lastCompletion sim.Time
	inBudget := 0
	complete := func(arrival, sent sim.Time, marked bool, hint uint8) {
		inflight--
		completedSeq++
		total := eng.Now() - arrival
		res.Completed++
		res.Latency.Record(int64(eng.Now() - sent))
		if total > budgetNanos {
			res.DeadlineMisses++
		} else {
			inBudget++
		}
		if eng.Now() > lastCompletion {
			lastCompletion = eng.Now()
		}
		if cfg.Marked {
			if marked {
				res.Marks++
				lastHint = hint
				if completedSeq > epoch {
					window = dataplane.WindowOnMark(window, 1)
					epoch = issuedSeq
				}
			} else {
				lastHint = 0
				window = dataplane.WindowOnClean(window, congWindowMax)
			}
		}
	}

	// attempt tries to issue one request; a window refusal backs off (scaled
	// by the congestion hint) and retries with the budget re-anchored through
	// the saturating wire.SubBudget — when it reports expiry the client gives
	// up instead of sending provably doomed work.
	var attempt func(start sim.Time, try int)
	attempt = func(start sim.Time, try int) {
		elapsed := dataplane.ElapsedMicros(int64(eng.Now() - start))
		if _, expired := wire.SubBudget(budgetMicros, elapsed); expired {
			res.GaveUp++
			return
		}
		if inflight >= window {
			res.Refused++
			d := pol.ScaledBackoff(try, dataplane.BackoffScale(lastHint))
			eng.After(sim.Time(d), func() { attempt(start, try+1) })
			return
		}
		depth := serverCore.QueueLen()
		if !dataplane.Admit(depth, congQueueCap) {
			res.Dropped++
			return
		}
		marked := cfg.Marked && dataplane.Mark(depth, congQueueCap)
		var hint uint8
		if marked {
			hint = dataplane.OccupancyHint(depth, congQueueCap)
		}
		inflight++
		issuedSeq++
		sent := eng.Now()
		serverCore.Acquire(func() {
			eng.After(service, func() {
				serverCore.Release()
				complete(start, sent, marked, hint)
			})
		})
	}

	issued := 0
	var arrive func()
	arrive = func() {
		if issued >= cfg.Requests {
			return
		}
		issued++
		if issued == 1 {
			firstArrival = eng.Now()
		}
		attempt(eng.Now(), 0)
		eng.After(arrivals.NextGap(), arrive)
	}
	eng.After(0, arrive)
	eng.Run()

	res.FinalWindow = window
	if elapsed := lastCompletion - firstArrival; elapsed > 0 {
		res.GoodputRPS = float64(inBudget) / (float64(elapsed) / 1e9)
	}
	return res
}

// RunCongestion runs the closed-loop congestion story: the same 2x-capacity
// open-loop load, with the ECN-style mark loop off and on. Off, the bounded
// server queue pins at capacity and every completion pays the full backlog —
// past the deadline budget, so goodput collapses. On, marks halve the
// client's window before the queue can grow past the mark threshold's
// neighborhood, the tail stays inside the budget, and goodput holds. The
// comparison is deterministic and asserted (CI runs it as a smoke test);
// TestClientCongestionLoop (internal/core) pins the functional stack's loop.
func RunCongestion(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "closed-loop congestion (§4.2 overload, closed loop): ECN-style queue marks driving client AIMD backoff (timing stack)")
	iface := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	service := OverloadServiceTime(iface)
	satRPS := 1e9 / float64(service)
	n := reqs(quick, 100_000)
	fmt.Fprintf(w, "  server capacity ~%.1f Mrps, queue cap %d, budget %dus (%dx service), %d requests\n",
		satRPS/1e6, congQueueCap, congBudgetMicros(service), congBudgetServiceMult, n)
	fmt.Fprintf(w, "  %-8s | %9s %9s %9s %8s | %8s %8s %8s %7s\n",
		"marks", "p50", "p99", "goodput", "miss%", "marked", "refused", "gaveup", "window")

	cfg := CongestionConfig{Iface: iface, OfferedRPS: 2 * satRPS, Requests: n, Seed: 7}
	off := RunCongestionPoint(cfg)
	cfg.Marked = true
	on := RunCongestionPoint(cfg)
	for _, p := range []struct {
		label string
		r     *CongestionResult
	}{{"off", off}, {"on", on}} {
		fmt.Fprintf(w, "  %-8s | %8.1fus %8.1fus %5.2fMrps %7.1f%% | %8d %8d %8d %7d\n",
			p.label, p.r.MedianUs(), p.r.P99Us(), p.r.GoodputRPS/1e6,
			100*float64(p.r.DeadlineMisses)/float64(max(1, p.r.Completed)),
			p.r.Marks, p.r.Refused, p.r.GaveUp, p.r.FinalWindow)
	}

	// Regression gates (enforced by CI's smoke run): the unmarked stack must
	// exhibit the collapse the loop exists to prevent, and the marked stack
	// must actually prevent it.
	budgetUs := float64(congBudgetMicros(service))
	if on.Marks == 0 {
		return fmt.Errorf("congestion: closed loop saw no marks at 2x saturation")
	}
	if on.P99Us() > budgetUs {
		return fmt.Errorf("congestion: marked p99 %.1fus exceeds the %vus budget", on.P99Us(), budgetUs)
	}
	if off.P99Us() <= budgetUs {
		return fmt.Errorf("congestion: unmarked p99 %.1fus within budget — queue never collapsed", off.P99Us())
	}
	if on.GoodputRPS < 3*off.GoodputRPS || on.GoodputRPS == 0 {
		return fmt.Errorf("congestion: marked goodput %.2fMrps not well above unmarked %.2fMrps",
			on.GoodputRPS/1e6, off.GoodputRPS/1e6)
	}
	if on.FinalWindow >= congWindowMax {
		return fmt.Errorf("congestion: AIMD window never decreased from %d", on.FinalWindow)
	}
	PublishMetrics("congestion", on.MetricsSnapshot())
	return nil
}
