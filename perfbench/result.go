package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
	"unsafe"
)

// metricSpec names one metric of the benchmark contract (BENCHMARK.json
// lists the same names and units; TestBenchmarkJSONMatchesProgram keeps
// them in step).
type metricSpec struct {
	name, unit, better string
}

// endToEnd is what a user of the library or the service sees; it is
// measured with tracing off. Each metric is nonzero on every workload,
// and its run-to-run spread on the 2-CPU host the benchmark was sized on
// stays inside the bound BENCHMARK.json gives it.
//
// The tail latencies (p90, and latency_ms.tail: the highest percentile
// with at least ten samples beyond it, capped at p99 — p99 on
// tcp-coded-64Ki and serve-mix, about p93 on the 1Mi workloads, whose
// runs hold about 150 transforms) swing by 20-45% between runs of the
// same code there, with the load other tenants put on the host, so they
// are reported per layer, without a bound. So are alloc_mb_per_op and
// peak_rss_mb: a plan keeps one transform workspace (about 100 MB at 1Mi)
// per scheduler P, and whether a run allocates a second or third one
// depends on which P the caller happens to run on.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_ms.p50", "ms", "lower"},
	{"mpts_per_s", "Mpts/s", "higher"},
	{"snr_db.min", "dB", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// perLayer comes from the traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"latency_ms.p90", "ms", "lower"},
	{"latency_ms.tail", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"core.transform_ms", "ms", "lower"},
	{"core.convolve_ms", "ms", "lower"},
	{"core.convolve_gflops", "GFLOP/s", "higher"},
	{"core.convolve_flop_per_byte", "flop/B", "higher"},
	{"core.convolve_roofline_frac", "ratio", "higher"},
	{"core.block_fft_ms", "ms", "lower"},
	{"core.segment_fft_ms", "ms", "lower"},
	{"core.demod_ms", "ms", "lower"},
	{"core.new_plan_ms", "ms", "lower"},
	{"core.rank_ms", "ms", "lower"},
	{"core.rank_self_ms", "ms", "lower"},
	{"core.rank_skew_ms", "ms", "lower"},
	{"core.adaptive_window", "chunks", "higher"},
	{"fft.forward_ms", "ms", "lower"},
	{"fft.gflops", "GFLOP/s", "higher"},
	{"fft.alloc_bytes_per_call", "B", "lower"},
	{"fft.mprime.forward_ms", "ms", "lower"},
	{"fft.mprime.gflops", "GFLOP/s", "higher"},
	{"fft.mprime.alloc_bytes_per_call", "B", "lower"},
	{"window.design_ms", "ms", "lower"},
	{"window.analyze_ms", "ms", "lower"},
	{"mpi.alltoall_ms", "ms", "lower"},
	{"mpi.send_ms", "ms", "lower"},
	{"mpi.recv_wait_ms", "ms", "lower"},
	{"mpi.calls", "count", "lower"},
	{"mpi.bytes", "B", "lower"},
	{"mpinet.connect_ms", "ms", "lower"},
	{"mpinet.frames", "count", "lower"},
	{"mpinet.bytes", "B", "lower"},
	{"mpinet.heartbeats", "count", "lower"},
	{"mpinet.checked_send_ms", "ms", "lower"},
	{"mpinet.checked_recv_wait_ms", "ms", "lower"},
	{"exch.send_block_ms", "ms", "lower"},
	{"exch.next_wait_ms", "ms", "lower"},
	{"exch.chunks", "count", "lower"},
	{"erasure.encode_ms", "ms", "lower"},
	{"erasure.wire_ratio", "ratio", "lower"},
	{"client.rtt_ms", "ms", "lower"},
	{"client.protocol_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"plancache.hit_ratio", "ratio", "higher"},
	{"bench.gen_late_ms.p90", "ms", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"host.mem_bw_gbs", "GB/s", "higher"},
	{"host.fft_gflops", "GFLOP/s", "higher"},
	{"host.peak_gflops", "GFLOP/s", "higher"},
	{"perfmodel.residual.conv", "ratio", "lower"},
	{"perfmodel.residual.fft", "ratio", "lower"},
	{"perfmodel.residual.mpi", "ratio", "lower"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is everything one run measured. The contract line printed last
// carries a subset of it; the full report is what --out writes and what
// the compare command reads.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`
	order       []string
}

func newReport(rc runConfig) *report {
	return &report{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.dur.Seconds(),
		Trace: rc.trace, Correct: true, Metrics: map[string]metric{},
	}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// writeTable prints every metric by name, unit and sample count.
func (r *report) writeTable(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  correct %v  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  %-34s %14s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g  %-8s %d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// contractLine renders the one-line result: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (r *report) contractLine() ([]byte, error) {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, s := range specs {
		m, ok := r.Metrics[s.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", r.Workload, s.name)
		}
		ms[s.name] = value{m.Value, s.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct && r.Failed == 0, r.Attempted, r.Failed, ms})
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// bitEqual compares two spectra bit for bit.
func bitEqual(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	ab := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*16)
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), len(b)*16)
	return bytes.Equal(ab, bb)
}
