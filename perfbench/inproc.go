package main

import (
	"context"

	"soifft"
	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// runInproc is inproc-1Mi: the public Plan.TransformDistributed on an
// in-process World, full accuracy, default blocking exchange, one caller
// in a closed loop. It is the only workload through the mpi runtime and
// the blocking exchange; its gap to node-1Mi is the cost of distributing.
//
// A traced op runs core.Plan.RunDistributed through World.RunSPMD with
// each rank's communicator wrapped by timedComm — what
// TransformDistributed does, plus the spans.
func runInproc(rc runConfig, fp fingerprint, n, ranks int) (*report, error) {
	r := newReport(rc)
	var plan *soifft.Plan
	var world *soifft.World
	setup, err := repeatSetup(nil, func() (err error) {
		if plan, err = soifft.NewPlan(n); err != nil {
			return err
		}
		world, err = soifft.NewWorld(ranks)
		return err
	})
	if err != nil {
		return nil, err
	}
	in := signal.Random(n, rc.seed)
	ref := make([]complex128, n)
	if err := plan.TransformDistributed(world, ref, in); err != nil {
		return nil, err
	}
	dense, err := fft.Forward(in)
	if err != nil {
		return nil, err
	}
	snr := r.checkRef(rc, ref, dense, floorFull, "distributed transform")

	out := make([]complex128, n)
	inner := plan.Internal()
	nLocal := n / ranks
	ctx := context.Background()
	l := closedLoop(rc.dur, rc.trace, n, func(traced bool) error {
		if !traced {
			return plan.TransformDistributed(world, out, in)
		}
		op := rc.rec.newOp()
		root := rc.rec.begin("soifft.transform_distributed", op, 0, -1)
		defer root.end(0)
		return world.RunSPMD(func(c *mpi.Comm) error {
			k := c.Rank()
			s := rc.rec.begin("core.rank", op, root.id(), k)
			defer s.end(0)
			_, err := inner.RunDistributed(ctx, wrapComm(c, "mpi", rc.rec, op, s.id()),
				out[k*nLocal:(k+1)*nLocal], in[k*nLocal:(k+1)*nLocal])
			return err
		})
	}, func() bool { return bitEqual(out, ref) }, func() int64 { return world.Stats().Bytes })
	r.setEndToEnd(setup, l, []float64{snr})
	if !rc.trace {
		return r, nil
	}
	ix := indexSpans(rc.rec.snapshot())
	r.setTransformSpan(ix, "soifft.transform_distributed")
	blocked := r.setRankLayers(ix)
	r.setCallLayers(ix,
		[2]string{"mpi.alltoall_ms", "mpi.alltoall"},
		[2]string{"mpi.send_ms", "mpi.send"},
		[2]string{"mpi.recv_wait_ms", "mpi.recv_wait"})
	calls, nc := perOp(ix, "mpi.", all, one)
	bytes, nb := perOp(ix, "mpi.", all, payload)
	r.set("mpi.calls", calls, "count", nc)
	r.set("mpi.bytes", bytes, "B", nb)
	sh := shape{prm: core.Params{N: n, P: plan.Segments(), Mu: 5, Nu: 4, B: plan.Taps()}, ranks: ranks}
	k, err := r.setKernelLayers(sh, in, fp)
	if err != nil {
		return nil, err
	}
	r.setResiduals(sh, k, blocked, fp)
	return r, nil
}
