package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"soifft/internal/mpi"
	"soifft/internal/signal"
	"soifft/internal/window"
)

// withKernel runs fn with the AVX kernel switched on or off, restoring
// the dispatch chosen at package initialisation afterwards. Tests that
// call it must not run in parallel.
func withKernel(avx bool, fn func()) {
	saved := useAVX
	useAVX = avx
	defer func() { useAVX = saved }()
	fn()
}

// requireAVX skips the calling test where this build or host has only
// the pure-Go kernel, so there is nothing to compare it against.
func requireAVX(t *testing.T) {
	t.Helper()
	if !useAVX {
		t.Skip("AVX kernel unavailable (non-amd64, purego build, or CPU/OS without AVX): nothing to compare")
	}
}

// bitDiff returns the first index where a and b differ in any bit of
// either component, or -1 when they are bit-identical.
func bitDiff(a, b []complex128) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestConvDotAVXMatchesGeneric compares the AVX and pure-Go kernels bit
// for bit over odd and even lane counts, odd and even tap counts and
// three oversampling ratios, on the full row range and on an interior
// sub-range whose input window starts at a nonzero, lane-unaligned
// global column — the call shape of the distributed executor.
func TestConvDotAVXMatchesGeneric(t *testing.T) {
	requireAVX(t)
	for _, ov := range [][2]int{{5, 4}, {3, 2}, {9, 8}} {
		for _, lanes := range []int{1, 2, 3, 5, 6, 8, 12, 16} {
			for _, taps := range []int{2, 3, 26, 27, 72} {
				// M = 144 is divisible by every ν and holds B = 72.
				p := Params{N: 144 * lanes, P: lanes, Mu: ov[0], Nu: ov[1], B: taps,
					Win: window.TauSigma{Tau: 0.8, Sigma: 90}}
				name := fmt.Sprintf("mu%d_nu%d_P%d_B%d", p.Mu, p.Nu, p.P, p.B)
				pl, err := NewPlan(p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				src := signal.Random(p.N, int64(lanes*100+taps))
				ext := make([]complex128, p.N+pl.HaloLen())
				copy(ext, src)
				copy(ext[p.N:], src[:pl.HaloLen()])
				rows := pl.MPrime()
				jLo, jHi := rows/3+1, 2*rows/3
				colOff := pl.rowEndCol(jLo) - p.B*p.P - 3
				var full, sub [2][]complex128
				for k, avx := range []bool{false, true} {
					full[k] = make([]complex128, rows*p.P)
					sub[k] = make([]complex128, (jHi-jLo)*p.P)
					withKernel(avx, func() {
						pl.ConvolveRange(full[k], ext, 0, rows, 0)
						pl.ConvolveRange(sub[k], ext[colOff:], jLo, jHi, colOff)
					})
				}
				if i := bitDiff(full[1], full[0]); i >= 0 {
					t.Errorf("%s: full range: element %d AVX %v generic %v", name, i, full[1][i], full[0][i])
				}
				if i := bitDiff(sub[1], sub[0]); i >= 0 {
					t.Errorf("%s: sub-range [%d,%d) colOff %d: element %d AVX %v generic %v",
						name, jLo, jHi, colOff, i, sub[1][i], sub[0][i])
				}
				if i := bitDiff(sub[1], full[1][jLo*p.P:jHi*p.P]); i >= 0 {
					t.Errorf("%s: AVX sub-range differs from its full-range rows at element %d", name, i)
				}
			}
		}
	}
}

// TestConvDotAVXTransformBitIdentical compares whole spectra: the
// shared-memory Plan.Transform and a 2-rank RunDistributed, each with
// the AVX kernel against the pure-Go one.
func TestConvDotAVXTransformBitIdentical(t *testing.T) {
	requireAVX(t)
	p := Params{N: 1 << 16, P: 8, Mu: 5, Nu: 4, B: 72}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 61)
	var node, dist [2][]complex128
	for k, avx := range []bool{false, true} {
		node[k] = make([]complex128, p.N)
		dist[k] = make([]complex128, p.N)
		withKernel(avx, func() {
			if err := pl.Transform(node[k], src); err != nil {
				t.Fatal(err)
			}
			w, err := mpi.NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			nLocal := p.N / 2
			err = w.Run(func(c *mpi.Comm) error {
				lo, hi := c.Rank()*nLocal, (c.Rank()+1)*nLocal
				_, err := pl.RunDistributed(context.Background(), c, dist[k][lo:hi], src[lo:hi])
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if i := bitDiff(node[1], node[0]); i >= 0 {
		t.Errorf("Transform: bin %d AVX %v generic %v", i, node[1][i], node[0][i])
	}
	if i := bitDiff(dist[1], dist[0]); i >= 0 {
		t.Errorf("RunDistributed on 2 ranks: bin %d AVX %v generic %v", i, dist[1][i], dist[0][i])
	}
}
