package main

import (
	"math"
	"time"

	"soifft/internal/bench"
	"soifft/internal/core"
	"soifft/internal/erasure"
	"soifft/internal/fft"
	"soifft/internal/netsim"
	"soifft/internal/window"
)

// shape is the transform a workload runs, as the layers see it.
type shape struct {
	prm    core.Params // N, P, μ/ν and B; Win nil means designed
	ranks  int
	parity int // coded-exchange parity shares; 0 when uncoded
}

// kernelTimes are the standalone per-rank kernel times the §7.4
// residuals compare with the model.
type kernelTimes struct {
	conv, fft time.Duration
}

// setKernelLayers times standalone calls into window, core and fft at the
// workload's per-rank shape, on the workload's input, one goroutine each:
// plan construction, the convolution, the F_P batch, the F_M' segment
// transforms, demodulation, and plain FFTs at N and M'.
func (r *report) setKernelLayers(sh shape, in []complex128, fp fingerprint) (kernelTimes, error) {
	p := sh.prm
	beta := p.Beta()
	var win window.Window
	r.timed("window.design_ms", func() { win = window.Design(p.B, beta, 1e3).Window }, 0.2)
	r.timed("window.analyze_ms", func() { window.Analyze(win, beta, p.B) }, 0.1)
	var pl *core.Plan
	var err error
	r.timed("core.new_plan_ms", func() { pl, err = core.NewPlan(p) }, 0.3)
	if err != nil {
		return kernelTimes{}, err
	}

	rows := pl.MPrime() / sh.ranks // convolution rows, P lanes each
	segs := p.P / sh.ranks
	mp := pl.MPrime()
	ext := extend(in, pl.HaloLen())
	conv := make([]complex128, rows*p.P)
	v := make([]complex128, rows*p.P)
	y := make([]complex128, segs*mp)
	d := make([]complex128, pl.M())
	tConv := r.timed("core.convolve_ms", func() { pl.ConvolveRange(conv, ext, 0, rows, 0) }, 0.3)
	tBlock := r.timed("core.block_fft_ms", func() { pl.BlockFFTBatch(v, conv, rows) }, 0.2)
	tSeg := r.timed("core.segment_fft_ms", func() {
		for s := 0; s < segs; s++ {
			pl.SegmentFFT(y[s*mp:(s+1)*mp], v[s*mp:(s+1)*mp])
		}
	}, 0.2)
	r.timed("core.demod_ms", func() {
		for s := 0; s < segs; s++ {
			pl.Demodulate(d, y[s*mp:(s+1)*mp])
		}
	}, 0.1)

	// Roofline of the convolution, in executed flops: the kernel does a
	// real·complex multiply-add per tap and lane (4 flops) and one complex
	// phase multiply per output (6). (core.ConvFlops and the perfmodel
	// calibration count 8 per tap, the complex·complex convention.)
	// Computed bytes: the input block plus halo and the output once each,
	// and the real tap table and lane phases once.
	flops := float64(rows*p.P) * (float64(p.B)*4 + 6)
	bytes := float64(p.N/sh.ranks+pl.HaloLen())*16 + float64(rows*p.P)*16 +
		float64(p.Mu*p.B*p.P)*8 + float64(p.Mu*p.P)*16
	gflops := flops / tConv.Seconds() / 1e9
	fpb := flops / bytes
	n := r.Metrics["core.convolve_ms"].Samples
	r.set("core.convolve_gflops", gflops, "GFLOP/s", n)
	r.set("core.convolve_flop_per_byte", fpb, "flop/B", 1)
	r.set("core.convolve_roofline_frac", gflops/math.Min(fp.PeakGflops, fp.MemBWGBs*fpb), "ratio", n)

	for _, c := range []struct {
		prefix string
		n      int
	}{{"fft.", p.N}, {"fft.mprime.", mp}} {
		plan, err := fft.CachedPlan(c.n)
		if err != nil {
			return kernelTimes{}, err
		}
		out := make([]complex128, c.n)
		t := r.timed(c.prefix+"forward_ms", func() { plan.Forward(out, in[:c.n]) }, 0.2)
		r.set(c.prefix+"gflops", fftFlops(c.n)/t.Seconds()/1e9, "GFLOP/s", r.Metrics[c.prefix+"forward_ms"].Samples)
		const calls = 4
		a0 := allocBytes()
		for i := 0; i < calls; i++ {
			plan.Forward(out, in[:c.n])
		}
		r.set(c.prefix+"alloc_bytes_per_call", float64(allocBytes()-a0)/calls, "B", calls)
	}

	r.set("erasure.encode_ms", 0, "ms", 0)
	if sh.parity > 0 {
		if err := r.encodeTime(sh.ranks, sh.parity, pl.NPrime()/(sh.ranks*sh.ranks)); err != nil {
			return kernelTimes{}, err
		}
	}
	return kernelTimes{conv: tConv, fft: tBlock + tSeg}, nil
}

// encodeTime times one rank's parity encode in the coded exchange: k =
// ranks data shares of one exchange chunk each, m parity shares.
func (r *report) encodeTime(k, m, chunk int) error {
	code, err := erasure.New(k, m)
	if err != nil {
		return err
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, chunk*16)
		for j := range data[i] {
			data[i][j] = byte(i*131 + j)
		}
	}
	parity := make([][]byte, m)
	for i := range parity {
		parity[i] = make([]byte, chunk*16)
	}
	r.timed("erasure.encode_ms", func() { err = code.Encode(data, parity) }, 0.1)
	return err
}

// timed records the median duration of fn as metric name, in ms.
func (r *report) timed(name string, fn func(), budget float64) time.Duration {
	t, n := medianTime(fn, budget)
	r.set(name, msOf(t), "ms", n)
	return t
}

// setResiduals compares the measured per-rank times with the paper's
// §7.4 model (internal/perfmodel) calibrated on this host's measured
// rates: the FFT and convolution rates at calibN, and a fabric that
// moves bytes at the triad bandwidth (an in-process or loopback exchange
// is a copy). transport is the per-rank time blocked in the transport,
// zero for a single-rank workload.
func (r *report) setResiduals(sh shape, k kernelTimes, transport time.Duration, fp fingerprint) {
	cal := bench.Calibration{
		FFTFlopsPerSec:  fp.FFTGflops * 1e9,
		ConvFlopsPerSec: fp.ConvGflops * 1e9,
		MeasureN:        calibN,
	}
	fabric := netsim.Ethernet{LinkGbit: fp.MemBWGBs * 8, Efficiency: 1}
	beta := sh.prm.Beta()
	ppn := int64(sh.prm.N / sh.ranks)
	m := cal.Model(fabric, ppn, beta, sh.prm.B)
	r.set("perfmodel.residual.conv", ratio(k.conv, m.Tconv), "ratio", r.Metrics["core.convolve_ms"].Samples)
	r.set("perfmodel.residual.fft", ratio(k.fft, m.TfftOversampled(sh.ranks)), "ratio", r.Metrics["core.segment_fft_ms"].Samples)
	tmpi := fabric.AlltoallTime(sh.ranks, int64(float64(ppn*16)*(1+beta)))
	r.set("perfmodel.residual.mpi", ratio(transport, tmpi), "ratio", r.Metrics["core.rank_ms"].Samples)
}

func ratio(measured, model time.Duration) float64 {
	if model <= 0 {
		return 0
	}
	return float64(measured) / float64(model)
}
