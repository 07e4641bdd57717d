package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"soifft/internal/instrument"
	"soifft/internal/telemetry"
	"soifft/internal/trace"
)

// Tags used by the distributed driver.
const (
	tagHalo = 100
)

// Comm is the communication surface of the distributed code. It is
// satisfied by *mpi.Comm (the in-process runtime) and by *mpinet.Proc
// (the TCP transport), so the same SOI code runs over goroutines or over
// real sockets. RunDistributed additionally requires the CheckedComm and
// StreamComm capabilities and moves its exchange through the latter;
// RunDistributedSegment uses the plain point-to-point calls and Gather.
// The blocking collectives stay part of the surface for callers that
// drive or wrap a transport directly (perfbench's timing wrapper).
type Comm interface {
	Rank() int
	Size() int
	Send(to, tag int, data any)
	RecvC(from, tag int) []complex128
	Alltoall(send []complex128, chunk int) []complex128
	PairwiseAlltoallv(send []complex128, sendCounts, recvCounts []int) []complex128
	Gather(root int, chunk []complex128) []complex128
}

// Fault is the marker interface for typed communication failures. A
// Comm implementation raises one as a panic when the transport itself
// breaks mid-collective (peer death, corrupted frame, expired I/O
// deadline); *mpinet.TransportError and *mpi.AbortError implement it.
// The distributed drivers recover Faults (and only Faults) into ordinary
// error returns, so a wire failure surfaces as a typed error from
// RunDistributed instead of a panic or a hang.
type Fault interface {
	error
	CommFault()
}

// RecoverFault converts an in-flight Fault panic into *err. Defer it (or
// use GuardComm) around any code that calls Comm methods directly.
// Non-fault panics — programming errors — propagate unchanged.
func RecoverFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(Fault); ok {
		if *err == nil {
			*err = f
		}
		return
	}
	panic(r)
}

// GuardComm runs fn and returns the typed communication Fault it raised,
// if any — the bridge for callers driving a Comm outside the Run*
// helpers (e.g. a bare Gather or Barrier in cmd/soinode).
func GuardComm(fn func()) (err error) {
	defer RecoverFault(&err)
	fn()
	return nil
}

// DistributedTimes records the per-phase wall time of one rank's
// distributed transform; the single Exchange entry is the headline
// communication step the paper optimizes.
type DistributedTimes struct {
	Halo      time.Duration // neighbour exchange of (B−1)·P elements
	Convolve  time.Duration // W·x plus I⊗F_P on local blocks
	Exchange  time.Duration // the one and only all-to-all
	SegmentFT time.Duration // owned segments' F_M' + demodulation
}

// Total returns the sum over phases.
func (t DistributedTimes) Total() time.Duration {
	return t.Halo + t.Convolve + t.Exchange + t.SegmentFT
}

// ValidateDistributed checks that the plan can run on r ranks: the rank
// count must divide the segment count P and the convolution row groups
// M/ν (so each rank's block range starts on a μ-row group boundary), and
// the tap halo must fit within a single neighbour's block.
func (pl *Plan) ValidateDistributed(r int) error {
	p := pl.prm
	switch {
	case r <= 0:
		return fmt.Errorf("core: rank count must be positive, got %d: %w", r, ErrPlanMismatch)
	case p.P%r != 0:
		return fmt.Errorf("core: ranks=%d must divide segments P=%d: %w", r, p.P, ErrPlanMismatch)
	case pl.groups%r != 0:
		return fmt.Errorf("core: ranks=%d must divide row groups M/ν=%d: %w", r, pl.groups, ErrPlanMismatch)
	case r > 1 && pl.HaloLen() > (r-1)*(p.N/r):
		return fmt.Errorf("core: halo %d exceeds the %d available neighbour blocks of %d; decrease B or ranks: %w",
			pl.HaloLen(), r-1, p.N/r, ErrPlanMismatch)
	}
	return nil
}

// countingComm mirrors the point-to-point traffic of
// RunDistributedSegment into a Recorder: payload bytes at the sender.
// RunDistributed does not use it; its executor books its own traffic
// where it sends — halo chunks as messages, exchange chunks against the
// all-to-all budget, the coding tail's frames as parity and recovery
// bytes.
type countingComm struct {
	Comm
	rec *instrument.Recorder
}

// instrumentComm wraps c when the recorder is observing; otherwise it
// returns c untouched so the uninstrumented path has zero indirection.
func instrumentComm(c Comm, rec *instrument.Recorder) Comm {
	if !rec.On() {
		return c
	}
	return &countingComm{Comm: c, rec: rec}
}

func (cc *countingComm) Send(to, tag int, data any) {
	cc.rec.CountMessage(payloadBytes(data))
	cc.Comm.Send(to, tag, data)
}

func (cc *countingComm) Gather(root int, chunk []complex128) []complex128 {
	if cc.Comm.Rank() != root {
		cc.rec.CountMessage(int64(len(chunk)) * 16)
	}
	return cc.Comm.Gather(root, chunk)
}

// payloadBytes sizes the wire payload of a Send argument.
func payloadBytes(data any) int64 {
	switch d := data.(type) {
	case []complex128:
		return int64(len(d)) * 16
	case []float64:
		return int64(len(d)) * 8
	case []byte:
		return int64(len(d))
	default:
		return 0
	}
}

// RunDistributed executes the SOI factorization over the communicator:
// rank p provides localIn = x[p·N/R : (p+1)·N/R] and receives
// localOut = y[p·N/R : (p+1)·N/R]. Communication per rank is one
// neighbour halo of (B−1)·P points plus a single all-to-all of
// (1+β)·N/R points — versus three all-to-alls of N/R points for the
// standard algorithms in internal/baseline.
//
// Every run moves its data through one driver: the streamed executor
// (stream.go). The producer convolves the local blocks tile by tile and
// fans each finished tile out through the transport's chunk stream
// while a consumer collects arriving chunks; the halo streams the same
// way. The Comm must therefore have both the CheckedComm and the
// StreamComm capability (both transports do); a Comm lacking either
// fails with an ErrPlanMismatch error naming it.
//
// Options select the schedule without changing the spectrum (every
// variant is bit-identical on a clean run):
//   - no window (the default) runs the one-tile schedule: convolve every
//     block, then send — the classic blocking exchange;
//   - WithAsyncWindow(w) splits the blocks into several tiles with w
//     chunks in flight per link, so wire time hides behind convolution
//     and the Exchange stage time reports only the un-hidden remainder;
//   - WithAdaptiveWindow() has the plan's closed-loop controller pick w
//     per rank: the model prior first, then adapted between transforms
//     from the measured overlap and credit-stall;
//   - WithCoding(m) adds the erasure-coding tail to the exchange so the
//     transform survives up to m rank deaths; it composes with every
//     schedule above;
//   - WithRecorder(rec) observes the run with a specific recorder.
//
// An uncoded run fails fast: the first send error, or the first
// per-source stream failure, is returned. A coded run routes around a
// dead peer and settles the outcome in its detection rounds.
//
// A cancelled context stops this rank before its next local phase; it
// does not interrupt a collective already in flight (the transport's
// I/O deadline bounds those), and ranks that stop early leave peers to
// fail with their own deadline faults.
func (pl *Plan) RunDistributed(ctx context.Context, c Comm, localOut, localIn []complex128, opts ...DistOption) (dt DistributedTimes, err error) {
	defer RecoverFault(&err)
	cfg := pl.resolveDistOptions(opts)
	if _, ok := c.(CheckedComm); !ok {
		return dt, fmt.Errorf("core: RunDistributed needs the CheckedComm capability, which %T lacks: %w", c, ErrPlanMismatch)
	}
	if _, ok := c.(StreamComm); !ok {
		return dt, fmt.Errorf("core: RunDistributed needs the StreamComm capability, which %T lacks: %w", c, ErrPlanMismatch)
	}
	if cfg.coded {
		if err := ValidateCoded(c.Size(), cfg.parity); err != nil {
			return dt, err
		}
	}
	if cfg.adaptive && cfg.window == 0 {
		cfg.window = pl.adaptiveWindow(c.Rank(), c.Size()).Window
	}
	e, err := pl.newDistExec(ctx, cfg, c, localOut, localIn)
	if err != nil {
		return dt, err
	}
	var cx *codedExchange
	if cfg.coded {
		cx = newCodedExchange(e, cfg.parity)
	}
	recv, deg, err := e.exchange(ctx, localIn, cx)
	if err != nil {
		return e.dt, err
	}
	if err := ctx.Err(); err != nil {
		return e.dt, err
	}

	// Phase 4: assemble each owned segment's oversampled sequence, run
	// F_M', project and demodulate.
	t0 := time.Now()
	e.tr.Begin(e.tid, e.rank, instrument.StageSegmentFFT.String())
	e.phase4(func(src int) []complex128 { return recv[src] }, localOut)
	if deg != nil && e.rank == deg.Coordinator {
		// Take over the dead ranks' segment assembly: the pipeline is
		// owner-agnostic, so feeding it dead rank d's column (pooled
		// survivor chunks plus decoded chunks) yields d's exact block.
		for _, d := range deg.ReconstructedRanks {
			out := make([]complex128, e.nLocal)
			e.phase4(func(src int) []complex128 { return cx.column(d, src) }, out)
			deg.TakenOver[d] = out
		}
	}
	e.dt.SegmentFT = time.Since(t0)
	e.tr.End(e.tid, e.rank, instrument.StageSegmentFFT.String())

	e.report()
	if deg != nil {
		e.cnt.CountDegraded()
		return e.dt, deg
	}
	return e.dt, nil
}

// distExec is the per-rank execution state one distributed transform
// shares between its phases.
type distExec struct {
	pl                *Plan
	c                 Comm                 // the transport, with the CheckedComm and StreamComm capabilities
	rec               *instrument.Recorder // this run's recorder (plan's unless WithRecorder overrode it)
	cnt               *instrument.Recorder // rec while it observes, else nil: the sink for traffic counts
	rank, r           int
	workers           int
	nLocal            int
	bpr               int  // convolution blocks per rank
	spr               int  // segments per rank
	chunk             int  // elements per destination in the exchange (bpr·spr)
	window            int  // streamed-exchange in-flight window (0 = one-tile schedule)
	adaptive          bool // window chosen by the plan's controller; observe after the run
	tr                *trace.Tracer
	tid               trace.ID
	tele              *telemetry.Plane
	timed             bool
	convBusy, segBusy atomic.Int64
	dt                DistributedTimes
}

// newDistExec validates plan/world/buffer shapes and assembles the
// execution state.
func (pl *Plan) newDistExec(ctx context.Context, cfg distOptions, c Comm, localOut, localIn []complex128) (*distExec, error) {
	r := c.Size()
	if err := pl.ValidateDistributed(r); err != nil {
		return nil, err
	}
	p := pl.prm
	workers := p.Workers
	if workers <= 0 {
		workers = 1 // one goroutine per rank unless hybrid mode is requested
	}
	nLocal := p.N / r
	if len(localIn) != nLocal || len(localOut) != nLocal {
		return nil, fmt.Errorf("core: rank %d: need local length %d, got in %d out %d: %w",
			c.Rank(), nLocal, len(localIn), len(localOut), ErrLength)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := &distExec{
		pl: pl, c: c, rec: cfg.rec, rank: c.Rank(), r: r, workers: workers, nLocal: nLocal,
		bpr: pl.mp / r, spr: p.P / r, chunk: (pl.mp / r) * (p.P / r),
		window:   cfg.window,
		adaptive: cfg.adaptive,
		tele:     cfg.tele,
		timed:    cfg.rec.Timing(),
	}
	if cfg.rec.On() {
		e.cnt = cfg.rec
	}
	e.tr, e.tid = pl.tracerFor(ctx)
	return e, nil
}

// phase4 assembles, segment-FFTs and demodulates one rank's worth of
// owned segments into out (nLocal elements). chunkOf(src) must return
// the bpr·spr chunk that source rank src addressed to the output owner;
// the segment pipeline itself is owner-agnostic (the global segment
// identity is baked into the chunk data by the phase-2 modulation), so
// the coding tail's takeover reuses it verbatim to rebuild a dead rank's
// output with bit-identical results.
func (e *distExec) phase4(chunkOf func(src int) []complex128, out []complex128) {
	pl := e.pl
	parfor(e.workers, e.spr, func(sLo, sHi int) {
		w0 := time.Now()
		xt := make([]complex128, pl.mp)
		yt := make([]complex128, pl.mp)
		for ss := sLo; ss < sHi; ss++ {
			for src := 0; src < e.r; src++ {
				cb := chunkOf(src)
				for j := 0; j < e.bpr; j++ {
					xt[src*e.bpr+j] = cb[j*e.spr+ss]
				}
			}
			pl.SegmentFFT(yt, xt)
			pl.Demodulate(out[ss*pl.m:(ss+1)*pl.m], yt)
		}
		if e.timed {
			e.segBusy.Add(int64(time.Since(w0)))
		}
	})
}

// report books the transform's stage observations into the plan's
// recorder (no-op when instrumentation is off) and, when a telemetry
// plane is attached, ships the rank's refreshed stat frame to rank 0.
func (e *distExec) report() {
	defer e.tele.OnTransformEnd() // after the recorder sees this transform
	rec := e.rec
	if !rec.On() {
		return
	}
	rec.AddTransform() // counts per-rank executions on the distributed path
	wall := e.dt
	if !rec.Timing() {
		wall = DistributedTimes{}
	}
	rec.ObserveStage(instrument.StageHalo, wall.Halo, 0, 1, 0)
	rec.ObserveStage(instrument.StageConvolve, wall.Convolve,
		time.Duration(e.convBusy.Load()), e.workers, e.pl.convStageFlops()/int64(e.r))
	rec.ObserveStage(instrument.StageExchange, wall.Exchange, 0, 1, 0)
	rec.ObserveStage(instrument.StageSegmentFFT, wall.SegmentFT,
		time.Duration(e.segBusy.Load()), e.workers,
		(e.pl.segmentStageFlops()+e.pl.demodStageFlops())/int64(e.r))
}
