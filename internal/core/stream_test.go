package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"soifft/internal/instrument"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// streamParams has several convolution blocks and segments per rank on 4
// ranks, so the tile schedule is non-trivial at every window under test.
var streamParams = Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32, Workers: 1}

// TestAsyncWindowBitIdentity: the streamed exchange re-orders pure data
// movement only — for every window the spectrum must match the blocking
// exchange bit for bit, with the same single-all-to-all accounting and
// the same analytic 16·(1+β)·N·(R−1)/R wire volume.
func TestAsyncWindowBitIdentity(t *testing.T) {
	const r, seed = 4, 301
	ref, _, refStats := runSOIDistributed(t, streamParams, r, seed)
	nPrime := streamParams.N / streamParams.Nu * streamParams.Mu
	wantBytes := int64(nPrime * 16 * (r - 1) / r)
	if refStats.AlltoallBytes != wantBytes {
		t.Fatalf("blocking volume %d, want analytic %d", refStats.AlltoallBytes, wantBytes)
	}
	for _, w := range []int{1, 2, r} {
		got, _, stats := runSOIDistributed(t, streamParams, r, seed, WithAsyncWindow(w))
		if e := signal.MaxAbsErr(got, ref); e != 0 {
			t.Errorf("window %d: streamed differs from blocking by %.3e", w, e)
		}
		if stats.Alltoalls != 1 {
			t.Errorf("window %d: %d all-to-alls, want exactly 1", w, stats.Alltoalls)
		}
		if stats.AlltoallBytes != wantBytes {
			t.Errorf("window %d: exchange carried %d bytes, want analytic %d",
				w, stats.AlltoallBytes, wantBytes)
		}
	}
}

// TestAsyncStreamRecorderBudget: the chunked frames must count against
// the same analytic exchange budget as the blocking call — one collective
// op, 16·(1+β)·N·(R−1)/R bytes regardless of window — plus a positive
// chunk count only the streamed path produces.
func TestAsyncStreamRecorderBudget(t *testing.T) {
	const r = 4
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	rec := instrument.New(instrument.LevelTimers)
	src := signal.Random(streamParams.N, 17)
	got := make([]complex128, streamParams.N)
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	nLocal := streamParams.N / r
	err = w.Run(func(c *mpi.Comm) error {
		_, err := pl.RunDistributed(context.Background(), c,
			got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			src[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			WithAsyncWindow(2), WithRecorder(rec))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	nPrime := streamParams.N / streamParams.Nu * streamParams.Mu
	wantBytes := int64(nPrime * 16 * (r - 1) / r)
	if snap.Comm.AlltoallBytes != wantBytes {
		t.Errorf("recorder all-to-all bytes %d, want analytic %d", snap.Comm.AlltoallBytes, wantBytes)
	}
	if snap.Comm.Alltoalls != 1 {
		t.Errorf("recorder counted %d all-to-all ops, want 1", snap.Comm.Alltoalls)
	}
	if snap.Comm.StreamChunks == 0 {
		t.Error("streamed run recorded zero chunks")
	}
	// Chunks partition the blocking payload: every rank ships T chunks to
	// each of the R−1 remote destinations.
	if snap.Comm.StreamChunks%int64(r*(r-1)) != 0 {
		t.Errorf("chunk count %d not a multiple of R(R-1)=%d", snap.Comm.StreamChunks, r*(r-1))
	}
	if ratio := snap.Comm.OverlapRatio(snap.Stages[instrument.StageExchange].Wall); ratio < 0 || ratio > 1 {
		t.Errorf("overlap ratio %.3f outside [0,1]", ratio)
	}
}

// opaqueComm hides every optional capability of the wrapped Comm: the
// promoted method set is exactly the Comm interface.
type opaqueComm struct{ Comm }

// checkedOnlyComm and streamOnlyComm expose exactly one capability.
type checkedOnlyComm struct {
	Comm
	CheckedComm
}

type streamOnlyComm struct {
	Comm
	StreamComm
}

// checkMissingCapabilityFailsTyped runs RunDistributed with opts over
// each capability-stripped wrapper of an in-process comm and asserts
// that every rank gets ErrPlanMismatch naming the missing capability,
// with no message sent. RunDistributed has one exchange driver, so a
// Comm without CheckedComm or StreamComm has no fallback in any mode.
func checkMissingCapabilityFailsTyped(t *testing.T, pl *Plan, mode string, opts ...DistOption) {
	t.Helper()
	const r = 4
	src := signal.Random(streamParams.N, 302)
	nLocal := streamParams.N / r
	wraps := []struct {
		name, missing string
		wrap          func(c *mpi.Comm) Comm
	}{
		{"opaque", "CheckedComm", func(c *mpi.Comm) Comm { return opaqueComm{c} }},
		{"stream-only", "CheckedComm", func(c *mpi.Comm) Comm { return streamOnlyComm{c, c} }},
		{"checked-only", "StreamComm", func(c *mpi.Comm) Comm { return checkedOnlyComm{c, c} }},
	}
	for _, wc := range wraps {
		w, err := mpi.NewWorld(r)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, r)
		if err := w.Run(func(c *mpi.Comm) error {
			rank := c.Rank()
			out := make([]complex128, nLocal)
			_, errs[rank] = pl.RunDistributed(context.Background(), wc.wrap(c), out,
				src[rank*nLocal:(rank+1)*nLocal], opts...)
			return nil
		}); err != nil {
			t.Fatalf("%s/%s: world: %v", wc.name, mode, err)
		}
		for rank, err := range errs {
			if !errors.Is(err, ErrPlanMismatch) || !strings.Contains(err.Error(), wc.missing) {
				t.Errorf("%s/%s rank %d: err %v, want ErrPlanMismatch naming %s",
					wc.name, mode, rank, err, wc.missing)
			}
		}
		if n := w.Stats().P2PMessages; n != 0 {
			t.Errorf("%s/%s: %d messages sent before the capability check failed", wc.name, mode, n)
		}
	}
}

// TestAsyncWindowFallbackWithoutCapability: there is no blocking
// fallback any more — with or without a window or coding, a transport
// lacking StreamComm or CheckedComm is a typed plan mismatch naming the
// missing capability, before any traffic.
func TestAsyncWindowFallbackWithoutCapability(t *testing.T) {
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	checkMissingCapabilityFailsTyped(t, pl, "default")
	checkMissingCapabilityFailsTyped(t, pl, "window2", WithAsyncWindow(2))
	checkMissingCapabilityFailsTyped(t, pl, "coded", WithCoding(1))
}

// TestAsyncHaloAccounting: the halo's chunks are counted at the sender
// in every mode, so the recorder's message bytes equal the fabric's halo
// traffic, 16·HaloLen·R per transform, whatever the window or coding.
func TestAsyncHaloAccounting(t *testing.T) {
	const r = 4
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(16 * pl.HaloLen() * r)
	src := signal.Random(streamParams.N, 307)
	nLocal := streamParams.N / r
	for _, w := range []int{0, 1, 2, r} {
		for _, m := range []int{-1, 0, 1} { // -1: uncoded
			opts := []DistOption{WithAsyncWindow(w)}
			if m >= 0 {
				opts = append(opts, WithCoding(m))
			}
			rec := instrument.New(instrument.LevelCounters)
			opts = append(opts, WithRecorder(rec))
			world, err := mpi.NewWorld(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := world.Run(func(c *mpi.Comm) error {
				rank := c.Rank()
				_, err := pl.RunDistributed(context.Background(), c, make([]complex128, nLocal),
					src[rank*nLocal:(rank+1)*nLocal], opts...)
				return err
			}); err != nil {
				t.Fatalf("window %d coded %d: %v", w, m, err)
			}
			snap := rec.Snapshot().Comm
			if snap.Bytes != want {
				t.Errorf("window %d coded %d: recorder halo bytes %d, want 16·HaloLen·R = %d", w, m, snap.Bytes, want)
			}
			// The fabric's halo traffic is what remains of its payload after
			// the exchange chunks, the parity, and — coded only — the clean
			// run's two mask rounds of one 16 B frame per ordered pair.
			s := world.Stats()
			fabric := s.P2PBytes - s.AlltoallBytes - snap.ParityBytes
			if m >= 0 {
				fabric -= 2 * r * (r - 1) * 16
			}
			if snap.Bytes != fabric {
				t.Errorf("window %d coded %d: recorder halo bytes %d, fabric carried %d", w, m, snap.Bytes, fabric)
			}
		}
	}
}

// TestAsyncOneTileHidesNoConvolution: the hidden-exchange clock starts at
// the first chunk send, so on the default one-tile schedule — convolve
// everything, then send — the hidden time is only the fan-out between
// sends and stays below the Convolve stage wall.
func TestAsyncOneTileHidesNoConvolution(t *testing.T) {
	const r = 2
	p := Params{N: 1 << 14, P: 8, Mu: 5, Nu: 4, B: 72, Workers: 1}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := instrument.New(instrument.LevelTimers)
	src := signal.Random(p.N, 308)
	nLocal := p.N / r
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		for i := 0; i < 3; i++ {
			if _, err := pl.RunDistributed(context.Background(), c, make([]complex128, nLocal),
				src[rank*nLocal:(rank+1)*nLocal], WithRecorder(rec)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	conv := snap.Stages[instrument.StageConvolve].Wall
	if conv <= 0 {
		t.Fatal("no convolution wall recorded")
	}
	if hidden := snap.Comm.HiddenExchange; hidden >= conv {
		t.Errorf("one-tile run booked %v hidden exchange, not below its %v convolution wall", hidden, conv)
	}
	if snap.Comm.StreamChunks != int64(3*r*(r-1)) {
		t.Errorf("one-tile run streamed %d chunks, want one per remote destination per transform (%d)",
			snap.Comm.StreamChunks, 3*r*(r-1))
	}
}

// TestAsyncCodedBitIdentity: coding composes with streaming — for every
// parity budget the streamed coded exchange must reproduce the blocking
// coded exchange (and hence the plain transform) bit for bit on a clean
// run.
func TestAsyncCodedBitIdentity(t *testing.T) {
	const r, seed = 4, 303
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, seed)
	ref, _, _ := runSOIDistributed(t, codedParams, r, seed)
	nLocal := codedParams.N / r
	for _, m := range []int{0, 1, 2} {
		for _, win := range []int{1, 2} {
			got := make([]complex128, codedParams.N)
			w, err := mpi.NewWorld(r)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *mpi.Comm) error {
				rank := c.Rank()
				out := make([]complex128, nLocal)
				_, err := pl.RunDistributed(context.Background(), c, out,
					src[rank*nLocal:(rank+1)*nLocal],
					WithCoding(m), WithAsyncWindow(win))
				copy(got[rank*nLocal:(rank+1)*nLocal], out)
				return err
			})
			if err != nil {
				t.Fatalf("m=%d window=%d: %v", m, win, err)
			}
			if e := signal.MaxAbsErr(got, ref); e != 0 {
				t.Errorf("m=%d window=%d: streamed coded differs by %.3e", m, win, e)
			}
		}
	}
}
