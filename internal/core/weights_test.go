package core

// Independent validation of the weight-tensor index algebra: the
// convolution output is recomputed from the paper's definitions alone
// (Definition 1 and the window transform pair), bypassing the tensor.

import (
	"math"
	"math/cmplx"
	"testing"

	"soifft/internal/signal"
	"soifft/internal/window"
)

// convolveByDefinition computes x̃_j = (1/M')·Σ_ℓ w(j/M' − ℓ/N)·x_{ℓ mod N}
// with w(t) = M·e^{iπM(t+t₀)}·H(M(t+t₀)), t₀ = B/(2M), truncated to the
// same B-tap column range the fast path uses.
func convolveByDefinition(pl *Plan, x []complex128, j int) []complex128 {
	p := pl.prm
	m := pl.m
	mp := pl.mp
	n := p.N
	t0 := float64(p.B) / (2 * float64(m))
	out := make([]complex128, p.P)
	g, r := j/p.Mu, j%p.Mu
	sj := g*p.Nu + pl.dstart[r]
	for b := 0; b < p.B; b++ {
		for i := 0; i < p.P; i++ {
			l := (sj+b)*p.P + i
			tArg := float64(j)/float64(mp) - float64(l)/float64(n)
			alpha := float64(m) * (tArg + t0)
			wval := complex(float64(m)*pl.win.HTime(alpha), 0) *
				cmplx.Exp(complex(0, math.Pi*alpha))
			out[i] += wval * x[l%n] / complex(float64(mp), 0)
		}
	}
	return out
}

// weightTensor rebuilds the unfactorized μ·B·P complex weight tensor,
// indexed [(r*B+b)*P+i], straight from buildWeights' formula
// (ν/μ)·exp(iπα)·H(α): the ground truth for the factorized tables.
func weightTensor(pl *Plan) []complex128 {
	p := pl.prm
	wt := make([]complex128, p.Mu*p.B*p.P)
	scale := float64(p.Nu) / float64(p.Mu)
	for r := 0; r < p.Mu; r++ {
		rOff := float64(r)*scale + float64(p.B)/2 - float64(pl.dstart[r])
		for b := 0; b < p.B; b++ {
			for i := 0; i < p.P; i++ {
				alpha := rOff - float64(b) - float64(i)/float64(p.P)
				wt[(r*p.B+b)*p.P+i] = complex(scale*pl.win.HTime(alpha), 0) *
					cmplx.Exp(complex(0, math.Pi*alpha))
			}
		}
	}
	return wt
}

// convolveRangeRef is the pre-factorization reference kernel: the same
// contract as ConvolveRange, computed with complex·complex MACs on the
// full weight tensor.
func convolveRangeRef(pl *Plan, dst, src []complex128, jLo, jHi, colOff int) {
	p := pl.prm
	wt := weightTensor(pl)
	for j := jLo; j < jHi; j++ {
		g, r := j/p.Mu, j%p.Mu
		start := (g*p.Nu+pl.dstart[r])*p.P - colOff
		w := wt[r*p.B*p.P : (r*p.B+p.B)*p.P]
		out := dst[(j-jLo)*p.P : (j-jLo+1)*p.P]
		for i := range out {
			out[i] = 0
		}
		for b := 0; b < p.B; b++ {
			xb := src[start+b*p.P : start+(b+1)*p.P]
			wb := w[b*p.P : (b+1)*p.P]
			for i, xv := range xb {
				out[i] += wb[i] * xv
			}
		}
	}
}

func TestConvolveRangeMatchesDefinition(t *testing.T) {
	p := Params{N: 480, P: 4, Mu: 5, Nu: 4, B: 24, Win: window.TauSigma{Tau: 0.8, Sigma: 90}}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	x := signal.Random(p.N, 31)
	ext := make([]complex128, p.N+pl.HaloLen())
	copy(ext, x)
	copy(ext[p.N:], x[:pl.HaloLen()])

	fast := make([]complex128, pl.MPrime()*p.P)
	pl.ConvolveRange(fast, ext, 0, pl.MPrime(), 0)

	// Spot-check rows across all μ phases and both block boundaries.
	rows := []int{0, 1, 2, 3, 4, 5, 7, 11, pl.MPrime() / 2, pl.MPrime() - 2, pl.MPrime() - 1}
	for _, j := range rows {
		want := convolveByDefinition(pl, x, j)
		got := fast[j*p.P : (j+1)*p.P]
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-13 {
				t.Errorf("row %d lane %d: fast %v definition %v (|Δ|=%.3e)",
					j, i, got[i], want[i], d)
			}
		}
	}
}

func TestWeightTensorGroupInvariance(t *testing.T) {
	// Paper Fig 4: the matrix has only μ·P·B distinct elements — rows
	// j and j+μ must produce identical weights (shifted input).
	p := Params{N: 640, P: 4, Mu: 5, Nu: 4, B: 16}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// Feed an impulse train so equal weights produce equal outputs:
	// x shifted by ν·P between row groups must reproduce outputs.
	x := signal.Random(p.N, 32)
	ext := make([]complex128, p.N+pl.HaloLen())
	copy(ext, x)
	copy(ext[p.N:], x[:pl.HaloLen()])
	out := make([]complex128, pl.MPrime()*p.P)
	pl.ConvolveRange(out, ext, 0, pl.MPrime(), 0)

	// Build a shifted input: x'(k) = x(k + ν·P); then row j on x' must
	// equal row j+μ on x.
	shift := p.Nu * p.P
	xs := make([]complex128, p.N)
	for k := range xs {
		xs[k] = x[(k+shift)%p.N]
	}
	exts := make([]complex128, p.N+pl.HaloLen())
	copy(exts, xs)
	copy(exts[p.N:], xs[:pl.HaloLen()])
	outs := make([]complex128, pl.MPrime()*p.P)
	pl.ConvolveRange(outs, exts, 0, pl.MPrime(), 0)

	for j := 0; j+p.Mu < pl.MPrime(); j += 7 {
		for i := 0; i < p.P; i++ {
			a := outs[j*p.P+i]
			b := out[(j+p.Mu)*p.P+i]
			if d := cmplx.Abs(a - b); d > 1e-13 {
				t.Errorf("row %d on shifted input != row %d: |Δ|=%.3e", j, j+p.Mu, d)
			}
		}
	}
}

func TestDemodulationUsesWindowSamples(t *testing.T) {
	// invW[k]·ŵ(k) must equal 1: ŵ(k) = e^{iπBk/M}·Ĥ((k−M/2)/M).
	p := Params{N: 512, P: 8, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	m := pl.M()
	for k := 0; k < m; k += 5 {
		u := (float64(k) - float64(m)/2) / float64(m)
		what := cmplx.Exp(complex(0, math.Pi*float64(p.B)*float64(k)/float64(m))) *
			complex(pl.win.HHat(u), 0)
		one := pl.invW[k] * what
		if cmplx.Abs(one-1) > 1e-12 {
			t.Errorf("k=%d: invW·ŵ = %v, want 1", k, one)
		}
	}
}
