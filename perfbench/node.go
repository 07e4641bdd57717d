package main

import (
	"soifft"
	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/signal"
)

// runNode is node-1Mi: shared-memory Plan.Transform at full accuracy
// (B=72, β=1/4, P=8), one caller in a closed loop, no transport. The
// convolution and the FFTs do nearly all the work, and every array is
// larger than the per-core L2.
func runNode(rc runConfig, fp fingerprint, n int) (*report, error) {
	r := newReport(rc)
	var plan *soifft.Plan
	setup, err := repeatSetup(nil, func() (err error) {
		plan, err = soifft.NewPlan(n)
		return err
	})
	if err != nil {
		return nil, err
	}
	in := signal.Random(n, rc.seed)
	ref := make([]complex128, n)
	if err := plan.Transform(ref, in); err != nil {
		return nil, err
	}
	dense, err := fft.Forward(in)
	if err != nil {
		return nil, err
	}
	snr := r.checkRef(rc, ref, dense, floorFull, "transform")

	out := make([]complex128, n)
	l := closedLoop(rc.dur, rc.trace, n, func(traced bool) error {
		if traced {
			s := rc.rec.begin("core.transform", rc.rec.newOp(), 0, 0)
			defer s.end(0)
		}
		return plan.Transform(out, in)
	}, func() bool { return bitEqual(out, ref) }, nil)
	r.setEndToEnd(setup, l, []float64{snr})
	if !rc.trace {
		return r, nil
	}
	r.setTransformSpan(indexSpans(rc.rec.snapshot()), "core.transform")
	sh := shape{prm: core.Params{N: n, P: plan.Segments(), Mu: 5, Nu: 4, B: plan.Taps()}, ranks: 1}
	k, err := r.setKernelLayers(sh, in, fp)
	if err != nil {
		return nil, err
	}
	r.setResiduals(sh, k, 0, fp)
	return r, nil
}
