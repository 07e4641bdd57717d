package core

import (
	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
)

// CheckedComm is the per-peer checked-messaging capability
// RunDistributed requires of its Comm (discovered by type assertion,
// like io.ReaderFrom): point-to-point operations that report a dead peer
// as an error to route around rather than a rank-fatal panic. The halo
// streams over it, and the coding tail's parity and recovery rounds run
// on it. Both *mpi.Comm and *mpinet.Proc implement it.
type CheckedComm interface {
	SendChecked(to, tag int, data any) error
	RecvCChecked(from, tag int) ([]complex128, error)
}

// StreamComm is the streaming-collective capability RunDistributed
// requires of its Comm: a chunked, windowed, asynchronous all-to-all
// whose chunks the driver fans out while later tiles are still
// convolving. Every distributed transform's exchange runs on it, the
// default one-tile schedule included. Both *mpi.Comm and *mpinet.Proc
// implement it.
type StreamComm interface {
	StartAlltoallv(o exch.Options) exch.Stream
}

// DistOption configures one distributed transform run (see
// Plan.RunDistributed).
type DistOption func(*distOptions)

type distOptions struct {
	coded    bool
	parity   int
	window   int
	adaptive bool
	rec      *instrument.Recorder
	tele     *telemetry.Plane
}

// resolveDistOptions folds the options over the plan's defaults.
func (pl *Plan) resolveDistOptions(opts []DistOption) distOptions {
	cfg := distOptions{rec: pl.rec}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithCoding adds the erasure-coding tail to the exchange: each rank
// encodes its R outgoing chunks (its own included) into m parity shares
// over GF(2^8) and ships them behind its data tiles, so the transform
// survives rank deaths mid-exchange. m = 0 means detection without
// repair; m must lie in [0, R−1] (ValidateCoded). Outcomes:
//   - no loss: identical to the uncoded run, bit for bit, at a wire cost
//     of (R−1+m)/(R−1) times the plain exchange;
//   - ranks die but every lost codeword retains ≥ R of its R+m shares
//     (guaranteed for any single death with m ≥ 1 when the victim's
//     sends flushed): every survivor finishes with the bit-exact
//     spectrum and returns *DegradedError naming the reconstructed
//     ranks; the coordinator additionally recomputes the dead ranks'
//     output blocks (DegradedError.TakenOver, routed by GatherDegraded);
//   - loss beyond the budget: every survivor returns a typed
//     *UnrecoverableLossError naming the dead peers, within the
//     transport's deadline bounds.
//
// The tail detects deaths with a two-round view/agreement exchange
// after the data and parity fan-out; it therefore handles ranks that
// crash up to that point. Deaths during the recovery itself surface as
// typed transport errors (clean failure, never a wrong answer). Coding
// composes with WithAsyncWindow and WithAdaptiveWindow.
func WithCoding(m int) DistOption {
	return func(o *distOptions) { o.coded = true; o.parity = m }
}

// WithAsyncWindow splits the exchange into several tiles with at most w
// chunks in flight (queued but unflushed) per destination link,
// overlapping wire time with convolution on the send side and with
// chunk collection on the receive side. w <= 0 selects the default
// one-tile schedule: every block convolves, then the single tile is
// sent. Results are bit-identical for every window.
func WithAsyncWindow(w int) DistOption {
	return func(o *distOptions) {
		if w < 0 {
			w = 0
		}
		o.window = w
	}
}

// WithAdaptiveWindow lets the plan's closed-loop controller pick the
// streamed exchange's window instead of a fixed WithAsyncWindow(w): the
// first transform runs at the model prior (SetWindowPrior, or the
// adapt.DefaultWindow without one), and between transforms the
// controller adapts from the measured overlap ratio, credit-stall share
// and wire/compute ratio, with hysteresis so a noisy link doesn't
// thrash the schedule. The overlap it reads counts only wire time after
// the first chunk send, so compute that no wire runs beside is never
// mistaken for hidden exchange. An explicit WithAsyncWindow(w > 0) in
// the same run overrides the controller. Composes with WithCoding.
// Results remain bit-identical at every chosen window.
func WithAdaptiveWindow() DistOption {
	return func(o *distOptions) { o.adaptive = true }
}

// WithRecorder observes this run with rec instead of the plan's own
// recorder (stage timers, comm counters). nil disables observation for
// the run.
func WithRecorder(rec *instrument.Recorder) DistOption {
	return func(o *distOptions) { o.rec = rec }
}

// WithTelemetry attaches this rank's cluster telemetry plane: each
// completed transform ships a fresh stat frame to rank 0 (one pointer
// test on the execution path; nil leaves the run exactly as without the
// option). The plane's lifetime belongs to the caller — the run only
// notifies it.
func WithTelemetry(p *telemetry.Plane) DistOption {
	return func(o *distOptions) { o.tele = p }
}
