package main

import (
	"runtime"
	"time"

	"soifft/internal/signal"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	rec      *recorder // nil unless trace
	// refHook, when set, sees every reference spectrum right after its
	// accuracy check; tests use it to corrupt one.
	refHook func(ref []complex128)
}

// loopStats is what the measuring window of one run observed.
type loopStats struct {
	lat       []float64 // ms per op; the untraced ops of a traced run
	tracedLat []float64 // ms per traced op (traced runs only)
	attempted int
	failed    int
	points    int64 // input points of ops whose output was correct
	busy      time.Duration
	elapsed   time.Duration
	cpu       time.Duration
	alloc     uint64
	wire      int64 // payload bytes sent between ranks or peers
}

// closedLoop runs one caller back to back for d: each op starts when the
// previous one returned. In a traced run, ops alternate between traced
// and untraced so that the tracing overhead is measured in the same
// window. check compares the op's output with the reference; wire, when
// set, reads a cumulative payload byte counter.
func closedLoop(d time.Duration, tracing bool, points int, op func(traced bool) error, check func() bool, wire func() int64) loopStats {
	var l loopStats
	var w0 int64
	if wire != nil {
		w0 = wire()
	}
	settle()
	a0, c0 := allocBytes(), cpuTime()
	start := time.Now()
	for i := 0; time.Since(start) < d || l.attempted == 0; i++ {
		traced := tracing && i%2 == 0
		t0 := time.Now()
		err := op(traced)
		dt := time.Since(t0)
		l.attempted++
		l.busy += dt
		if traced {
			l.tracedLat = append(l.tracedLat, msOf(dt))
		} else {
			l.lat = append(l.lat, msOf(dt))
		}
		if err != nil || !check() {
			l.failed++
			continue
		}
		l.points += int64(points)
	}
	l.elapsed = time.Since(start)
	l.cpu = cpuTime() - c0
	l.alloc = allocBytes() - a0
	if wire != nil {
		l.wire = wire() - w0
	}
	return l
}

// repeatSetup times setup setupReps times; each call must leave a ready
// system behind. teardown, when set, releases the previous system first;
// it and a garbage collection run outside the timed part, so setup_s
// times the setup work alone.
func repeatSetup(teardown func(), setup func() error) ([]float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		if teardown != nil {
			teardown()
		}
		settle()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts, nil
}

// settle collects the garbage earlier work left behind, so that the
// collection it would trigger does not land in what is timed next.
func settle() { runtime.GC() }

// setupReps is how many times a run sets its system up; setup_s is the
// median.
const setupReps = 9

// setEndToEnd fills the end-to-end metrics from a run's measurements.
func (r *report) setEndToEnd(setup []float64, l loopStats, snr []float64) {
	r.Attempted, r.Failed = l.attempted, l.failed
	r.set("setup_s", median(setup), "s", len(setup))
	n := len(l.lat)
	r.set("latency_ms.p50", quantile(l.lat, 0.50), "ms", n)
	r.set("latency_ms.p90", quantile(l.lat, 0.90), "ms", n)
	q := max(0.5, min(0.99, 1-10/float64(n)))
	r.set("latency_ms.tail", quantile(l.lat, q), "ms", n)
	r.set("latency_ms.tail_quantile", q, "ratio", n)
	if n >= 1000 {
		r.set("latency_ms.p99", quantile(l.lat, 0.99), "ms", n)
	}
	busy := l.busy.Seconds()
	r.set("mpts_per_s", float64(l.points)/1e6/busy, "Mpts/s", l.attempted)
	r.set("error_ratio", float64(l.failed)/float64(l.attempted), "ratio", l.attempted)
	minSNR := 0.0
	for i, s := range snr {
		if i == 0 || s < minSNR {
			minSNR = s
		}
	}
	r.set("snr_db.min", minSNR, "dB", len(snr))
	ops := float64(l.attempted)
	r.set("wire_bytes_per_op", float64(l.wire)/ops, "B", l.attempted)
	r.set("alloc_mb_per_op", float64(l.alloc)/1e6/ops, "MB", l.attempted)
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	r.set("cpu_ms_per_op", msOf(l.cpu)/ops, "ms", l.attempted)
	if r.Trace {
		r.set("bench.trace_overhead_frac", median(l.tracedLat)/median(l.lat)-1, "ratio",
			len(l.tracedLat)+len(l.lat))
	}
}

// checkRef measures a reference spectrum against the dense transform of
// the same input and fails the run below floor dB. It returns the SNR.
func (r *report) checkRef(rc runConfig, ref, dense []complex128, floor float64, what string) float64 {
	snr := signal.SNRdB(ref, dense)
	if !(snr >= floor) {
		r.fail("%s: SNR %.1f dB against the dense FFT is below %.0f dB", what, snr, floor)
	}
	if rc.refHook != nil {
		rc.refHook(ref)
	}
	return snr
}

// SNR floors by accuracy rung: full accuracy measures about 279 dB here,
// the B=26 rung labelled 200 dB about 167 dB.
const (
	floorFull  = 250
	floor200dB = 150
)
