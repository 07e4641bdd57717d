package core

import (
	"context"
	"testing"

	"soifft/internal/mpi"
	"soifft/internal/signal"
	"soifft/internal/trace"
)

// runAdaptive executes transforms adaptive transforms on a fresh
// in-process world and returns the assembled spectrum.
func runAdaptive(t *testing.T, pl *Plan, src []complex128, ranks, transforms int,
	ctx context.Context, opts ...DistOption) []complex128 {
	t.Helper()
	got := make([]complex128, len(src))
	nLocal := len(src) / ranks
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		for i := 0; i < transforms; i++ {
			if _, err := pl.RunDistributed(ctx, c,
				got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
				src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], opts...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAdaptiveWindowBitIdentityAndPrior: WithAdaptiveWindow resolves the
// first window from the seeded model prior, every transform stays
// bit-identical to the blocking exchange, the per-rank decision is
// exposed through the plan API, and the streamed halo rides the same
// runs (halo chunk instants on the trace).
func TestAdaptiveWindowBitIdentityAndPrior(t *testing.T) {
	const r, seed = 4, 304
	ref, _, _ := runSOIDistributed(t, streamParams, r, seed)
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	// ratio 1.6 → PriorWindow = ceil(3.2) = 4, inside MaxWindow = R.
	pl.SetWindowPrior(1.6)
	tr := trace.New(0)
	ctx := trace.WithTracer(trace.WithID(context.Background(), trace.NewID()), tr)
	src := signal.Random(streamParams.N, seed)
	got := runAdaptive(t, pl, src, r, 3, ctx, WithAdaptiveWindow())
	if e := signal.MaxAbsErr(got, ref); e != 0 {
		t.Errorf("adaptive run differs from blocking by %.3e (must be bit-identical)", e)
	}
	for rank := 0; rank < r; rank++ {
		d, ok := pl.AdaptiveDecision(rank)
		if !ok {
			t.Fatalf("rank %d: no adaptive decision after 3 transforms", rank)
		}
		if d.Prior != 4 {
			t.Errorf("rank %d: model prior window %d, want 4 from ratio 1.6", rank, d.Prior)
		}
		if d.Window < 1 || d.Window > r {
			t.Errorf("rank %d: settled window %d outside [1,%d]", rank, d.Window, r)
		}
	}
	var windows, haloSends int
	for _, ev := range tr.Snapshot() {
		switch ev.Name {
		case "adaptive_window":
			windows++
		case "halo_chunk_send":
			haloSends++
		}
	}
	if windows < 3*r {
		t.Errorf("trace has %d adaptive_window counters, want at least %d", windows, 3*r)
	}
	if haloSends == 0 {
		t.Error("no halo_chunk_send instants: streamed halo did not run")
	}
}

// TestAdaptiveComposesWithCoding: the controller and the coded exchange
// share the streamed path; a clean coded adaptive run must reproduce the
// blocking transform bit for bit and still record a decision.
func TestAdaptiveComposesWithCoding(t *testing.T) {
	const r, seed = 4, 305
	ref, _, _ := runSOIDistributed(t, codedParams, r, seed)
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, seed)
	got := runAdaptive(t, pl, src, r, 2, context.Background(),
		WithCoding(1), WithAdaptiveWindow())
	if e := signal.MaxAbsErr(got, ref); e != 0 {
		t.Errorf("coded adaptive run differs from blocking by %.3e", e)
	}
	if _, ok := pl.AdaptiveDecision(0); !ok {
		t.Error("no adaptive decision after a coded adaptive run")
	}
}

// TestAdaptiveFallbackWithoutCapability: the adaptive option has no
// blocking fallback either — on a transport lacking StreamComm or
// CheckedComm it fails with a typed plan mismatch before any traffic,
// and no controller is ever created.
func TestAdaptiveFallbackWithoutCapability(t *testing.T) {
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	checkMissingCapabilityFailsTyped(t, pl, "adaptive", WithAdaptiveWindow())
	checkMissingCapabilityFailsTyped(t, pl, "adaptive+coded", WithAdaptiveWindow(), WithCoding(1))
	if _, ok := pl.AdaptiveDecision(0); ok {
		t.Error("controller created although the transport lacks a required capability")
	}
}
