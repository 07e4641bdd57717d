package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/signal"
)

// fingerprint identifies the host a result was measured on. Results
// from different fingerprints are not comparable: the same commit runs
// 1.5x slower on one 2-CPU host than on another.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	MemBWGBs   float64 `json:"mem_bw_gbs"`
	FFTGflops  float64 `json:"fft_gflops"`
	ConvGflops float64 `json:"conv_gflops"`
	PeakGflops float64 `json:"peak_gflops"`
}

// Sizes of the host calibration. The triad arrays (32 MiB each) are 8x
// the 4 MiB per-core L2 of the 2-CPU host this benchmark was sized on;
// that host reports a 300 MiB shared L3, which no array this small can
// exceed, so mem_bw_gbs is a sustained L2-miss bandwidth, not DRAM.
const (
	triadLen = 1 << 22
	calibN   = 1 << 16
)

// measureHost takes the fingerprint, including the rates the §7.4 model
// is calibrated with: single-thread triad bandwidth, scalar peak
// multiply-add rate, and FFT and convolution rates at calibN.
func measureHost() (fingerprint, error) {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		MemBWGBs:   triadGBs(),
		PeakGflops: peakGflops(),
	}
	src := signal.Random(calibN, 1)
	plan, err := fft.CachedPlan(calibN)
	if err != nil {
		return fp, err
	}
	dst := make([]complex128, calibN)
	t, _ := medianTime(func() { plan.Forward(dst, src) }, 0.15)
	fp.FFTGflops = fftFlops(calibN) / t.Seconds() / 1e9

	cp, err := core.NewPlan(core.Params{N: calibN, P: 8, Mu: 5, Nu: 4, B: 72})
	if err != nil {
		return fp, err
	}
	ext := extend(src, cp.HaloLen())
	out := make([]complex128, cp.NPrime())
	t, _ = medianTime(func() { cp.ConvolveRange(out, ext, 0, cp.MPrime(), 0) }, 0.15)
	fp.ConvGflops = float64(cp.ConvFlops()) / t.Seconds() / 1e9
	return fp, nil
}

// comparable reports whether two fingerprints name the same kind of
// host: identical CPU model, CPU counts and toolchain, and calibration
// rates within 20% of each other.
func (f fingerprint) comparable(g fingerprint) (bool, string) {
	switch {
	case f.CPU != g.CPU:
		return false, "cpu model differs"
	case f.NProc != g.NProc || f.GOMAXPROCS != g.GOMAXPROCS:
		return false, "cpu count differs"
	case f.GoVersion != g.GoVersion:
		return false, "go version differs"
	case !near(f.MemBWGBs, g.MemBWGBs, 0.2):
		return false, "memory bandwidth differs by more than 20%"
	case !near(f.FFTGflops, g.FFTGflops, 0.2):
		return false, "fft rate differs by more than 20%"
	}
	return true, ""
}

func near(a, b, tol float64) bool {
	if a <= 0 || b <= 0 {
		return a == b
	}
	return math.Abs(a-b)/math.Max(a, b) <= tol
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// triadGBs measures a[i] = b[i] + s·c[i] on one goroutine and counts
// three 8-byte streams per element, the STREAM convention.
func triadGBs() float64 {
	a := make([]float64, triadLen)
	b := make([]float64, triadLen)
	c := make([]float64, triadLen)
	for i := range b {
		b[i], c[i] = float64(i), float64(triadLen-i)
	}
	s := 1.5
	t, _ := medianTime(func() {
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
	}, 0.2)
	sink += a[triadLen/2]
	return 3 * 8 * float64(triadLen) / t.Seconds() / 1e9
}

// peakGflops measures the scalar multiply-add rate of one goroutine:
// six independent accumulations a += b·c per step (six, so that every
// operand stays in a register), with c advanced every step so the
// compiler cannot hoist the products. The Go compiler neither vectorizes
// nor fuses these, so this is the compute ceiling of the pure Go
// kernels, counting a multiply and an add as two flops.
func peakGflops() float64 {
	const iters = 1 << 20
	var a [6]float64
	t, _ := medianTime(func() {
		a0, a1, a2, a3, a4, a5 := a[0], a[1], a[2], a[3], a[4], a[5]
		c := 1e-9
		for i := 0; i < iters; i++ {
			a0 += 1.0 * c
			a1 += 1.1 * c
			a2 += 1.2 * c
			a3 += 1.3 * c
			a4 += 1.4 * c
			a5 += 1.5 * c
			c += 1e-18
		}
		a = [6]float64{a0, a1, a2, a3, a4, a5}
	}, 0.1)
	for _, v := range a {
		sink += v
	}
	return 2 * 6 * iters / t.Seconds() / 1e9
}

// sink keeps measured loops from being optimized away.
var sink float64

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// medianTime runs fn at least 3 and at most 101 times, for about budget
// seconds, and returns the median duration and the number of timed runs.
func medianTime(fn func(), budget float64) (time.Duration, int) {
	t0 := time.Now()
	fn()
	first := time.Since(t0)
	reps := 3
	if first > 0 {
		reps = int(budget / first.Seconds())
	}
	reps = min(max(reps, 3), 101)
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), reps
}

func fftFlops(n int) float64 { return 5 * float64(n) * math.Log2(float64(n)) }

// extend appends the input's own head so convolution tap windows never
// wrap — the shared-memory stand-in for the halo exchange.
func extend(x []complex128, halo int) []complex128 {
	ext := make([]complex128, len(x)+halo)
	copy(ext, x)
	copy(ext[len(x):], x[:halo])
	return ext
}
