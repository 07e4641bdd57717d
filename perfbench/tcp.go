package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/mpinet"
	"soifft/internal/signal"
)

// frameHeader is the size of an mpinet data frame header; NetStats byte
// counts include it, the payload metrics do not.
const frameHeader = 24

// ioTimeout is the per-operation I/O deadline soinode arms by default;
// it also turns on heartbeats on idle links.
const ioTimeout = 30 * time.Second

// runTCP is tcp-coded-64Ki: mpinet ranks as goroutines over loopback
// TCP, with the erasure-coded, streamed exchange under the adaptive
// window controller — what `soinode -coded 1 -async-window auto` runs.
// The blocks are small, so framing, checksums, credit windows, the
// streamed halo, parity and the controller carry much of the wall time.
func runTCP(rc runConfig, fp fingerprint, n, ranks, parity int) (*report, error) {
	r := newReport(rc)
	prm := core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 72}
	var plan *core.Plan
	var procs []*mpinet.Proc
	defer func() { closeMesh(procs) }()
	var connect []float64
	setup, err := repeatSetup(func() {
		closeMesh(procs)
		procs = nil
	}, func() (err error) {
		if plan, err = core.NewPlan(prm); err != nil {
			return err
		}
		if err = plan.ValidateDistributed(ranks); err != nil {
			return err
		}
		if err = core.ValidateCoded(ranks, parity); err != nil {
			return err
		}
		t0 := time.Now()
		procs, err = connectMesh(ranks)
		connect = append(connect, msOf(time.Since(t0)))
		return err
	})
	if err != nil {
		return nil, err
	}
	opts := []core.DistOption{core.WithCoding(parity), core.WithAdaptiveWindow()}
	in := signal.Random(n, rc.seed)
	nLocal := n / ranks
	ctx := context.Background()
	run := func(out []complex128, wrap func(rank int, c core.Comm) (core.Comm, func())) error {
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for k := range procs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				var c core.Comm = procs[k]
				if wrap != nil {
					var done func()
					c, done = wrap(k, c)
					defer done()
				}
				_, errs[k] = plan.RunDistributed(ctx, c, out[k*nLocal:(k+1)*nLocal],
					in[k*nLocal:(k+1)*nLocal], opts...)
			}(k)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	ref := make([]complex128, n)
	if err := run(ref, nil); err != nil {
		return nil, err
	}
	dense, err := fft.Forward(in)
	if err != nil {
		return nil, err
	}
	snr := r.checkRef(rc, ref, dense, floorFull, "coded distributed transform")

	statsBefore := meshStats(procs)
	out := make([]complex128, n)
	l := closedLoop(rc.dur, rc.trace, n, func(traced bool) error {
		if !traced {
			return run(out, nil)
		}
		op := rc.rec.newOp()
		root := rc.rec.begin("core.distributed", op, 0, -1)
		defer root.end(0)
		return run(out, func(k int, c core.Comm) (core.Comm, func()) {
			s := rc.rec.begin("core.rank", op, root.id(), k)
			return wrapComm(c, "mpinet", rc.rec, op, s.id()), func() { s.end(0) }
		})
	}, func() bool { return bitEqual(out, ref) }, func() int64 {
		s := meshStats(procs)
		return s.BytesSent - frameHeader*s.FramesSent
	})
	r.setEndToEnd(setup, l, []float64{snr})
	if !rc.trace {
		return r, nil
	}
	ix := indexSpans(rc.rec.snapshot())
	r.setTransformSpan(ix, "core.distributed")
	blocked := r.setRankLayers(ix)
	r.setCallLayers(ix,
		[2]string{"mpinet.checked_send_ms", "mpinet.checked_send"},
		[2]string{"mpinet.checked_recv_wait_ms", "mpinet.checked_recv_wait"},
		[2]string{"exch.send_block_ms", "exch.send_block"},
		[2]string{"exch.next_wait_ms", "exch.next_wait"})
	chunks, nc := perOp(ix, "exch.send_block", movesPayload, one)
	r.set("exch.chunks", chunks, "count", nc)
	// Exchange payload: streamed chunks plus the coded protocol's checked
	// messages (negative tags); the halo travels on positive tags.
	exchBytes, nb := perOp(ix, "", func(s span) bool {
		return s.Name == "exch.send_block" || (s.Name == "mpinet.checked_send" && s.Tag < 0)
	}, payload)
	budget := 16 * (1 + prm.Beta()) * float64(n) * float64(ranks-1) / float64(ranks)
	r.set("erasure.wire_ratio", exchBytes/budget, "ratio", nb)

	st := meshStats(procs)
	ops := float64(l.attempted)
	r.set("mpinet.connect_ms", median(connect), "ms", len(connect))
	r.set("mpinet.frames", float64(st.FramesSent-statsBefore.FramesSent)/ops, "count", l.attempted)
	r.set("mpinet.bytes", float64(st.BytesSent-statsBefore.BytesSent)/ops, "B", l.attempted)
	r.set("mpinet.heartbeats", float64(st.HeartbeatsSent-statsBefore.HeartbeatsSent), "count", 1)
	var window float64
	for k := 0; k < ranks; k++ {
		if d, ok := plan.AdaptiveDecision(k); ok {
			window += float64(d.Window) / float64(ranks)
		}
	}
	r.set("core.adaptive_window", window, "chunks", ranks)

	sh := shape{prm: prm, ranks: ranks, parity: parity}
	k, err := r.setKernelLayers(sh, in, fp)
	if err != nil {
		return nil, err
	}
	r.setResiduals(sh, k, blocked, fp)
	return r, nil
}

// connectMesh forms a loopback mesh of ranks goroutine-hosted mpinet
// ranks.
func connectMesh(ranks int) ([]*mpinet.Proc, error) {
	nodes := make([]*mpinet.Node, ranks)
	addrs := make([]string, ranks)
	for k := range nodes {
		nd, err := mpinet.NewNode(k, ranks, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		nodes[k], addrs[k] = nd, nd.Addr()
	}
	procs := make([]*mpinet.Proc, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for k := range nodes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			procs[k], errs[k] = nodes[k].Connect(addrs)
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeMesh(procs)
		return nil, err
	}
	for _, p := range procs {
		p.SetIOTimeout(ioTimeout)
	}
	return procs, nil
}

func closeMesh(procs []*mpinet.Proc) {
	for _, p := range procs {
		if p != nil {
			p.Close()
		}
	}
}

// meshStats sums the transport counters over every rank.
func meshStats(procs []*mpinet.Proc) mpinet.NetStats {
	var t mpinet.NetStats
	for _, p := range procs {
		s := p.Stats()
		t.FramesSent += s.FramesSent
		t.BytesSent += s.BytesSent
		t.HeartbeatsSent += s.HeartbeatsSent
	}
	return t
}
