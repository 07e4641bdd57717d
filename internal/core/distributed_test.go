package core

import (
	"context"
	"strings"
	"testing"

	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// runSOIDistributed executes the plan over r ranks (with any DistOptions
// passed through) and returns the gathered output, the direct-DFT
// reference and the traffic stats.
func runSOIDistributed(t *testing.T, p Params, r int, seed int64, opts ...DistOption) ([]complex128, []complex128, mpi.Stats) {
	t.Helper()
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	src := signal.Random(p.N, seed)
	want := make([]complex128, p.N)
	fft.Direct(want, src)
	got := make([]complex128, p.N)
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	nLocal := p.N / r
	err = w.Run(func(c *mpi.Comm) error {
		in := src[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
		out := got[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
		_, err := pl.RunDistributed(context.Background(), c, out, in, opts...)
		return err
	})
	if err != nil {
		t.Fatalf("RunDistributed N=%d R=%d: %v", p.N, r, err)
	}
	return got, want, w.Stats()
}

func TestDistributedSOIMatchesDirect(t *testing.T) {
	cases := []struct {
		p Params
		r int
	}{
		{Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}, 1},
		{Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}, 2},
		{Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}, 4},
		{Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 32}, 8},
		{Params{N: 1024, P: 16, Mu: 5, Nu: 4, B: 16}, 4}, // segments > ranks
		{Params{N: 2048, P: 16, Mu: 5, Nu: 4, B: 48}, 8}, // 2 segments per rank
		{Params{N: 960, P: 8, Mu: 5, Nu: 4, B: 24}, 2},   // non power-of-two N
		{Params{N: 1280, P: 8, Mu: 5, Nu: 4, B: 24}, 4},  // 5-smooth N
		{Params{N: 512, P: 8, Mu: 3, Nu: 2, B: 24}, 8},   // β = 1/2
	}
	for _, c := range cases {
		pl, err := NewPlan(c.p)
		if err != nil {
			t.Errorf("NewPlan(%+v): %v", c.p, err)
			continue
		}
		got, want, _ := runSOIDistributed(t, c.p, c.r, int64(c.p.N+c.r))
		e := signal.RelErrL2(got, want)
		tol := pl.PredictedError() * 100
		if tol < 1e-11 {
			tol = 1e-11
		}
		if e > tol {
			t.Errorf("params %+v R=%d: rel error %.3e > %.3e", c.p, c.r, e, tol)
		}
	}
}

func TestDistributedMatchesSerialExactly(t *testing.T) {
	// The distributed pipeline reorders identical floating-point
	// operations; results must match the shared-memory path bit-for-bit.
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 48, Workers: 1}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 21)
	serial := make([]complex128, p.N)
	if err := pl.Transform(serial, src); err != nil {
		t.Fatal(err)
	}
	got, _, _ := runSOIDistributed(t, p, 4, 21)
	if e := signal.MaxAbsErr(got, serial); e != 0 {
		t.Errorf("distributed differs from serial by %.3e", e)
	}
}

func TestDistributedSingleAlltoall(t *testing.T) {
	// The headline claim: one all-to-all, regardless of rank count.
	for _, r := range []int{2, 4, 8} {
		p := Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32}
		_, _, stats := runSOIDistributed(t, p, r, 5)
		if stats.Alltoalls != 1 {
			t.Errorf("R=%d: SOI used %d all-to-alls, want exactly 1", r, stats.Alltoalls)
		}
		// Wire messages: one halo send per rank plus the all-to-all's
		// r·(r−1) chunk messages — nothing else.
		want := int64(r + r*(r-1))
		if stats.P2PMessages != want {
			t.Errorf("R=%d: %d wire messages, want %d", r, stats.P2PMessages, want)
		}
	}
}

func TestDistributedAlltoallVolumeIsOversampled(t *testing.T) {
	// SOI's one exchange carries (1+β)·N points; verify the byte count.
	p := Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32}
	r := 4
	_, _, stats := runSOIDistributed(t, p, r, 6)
	nPrime := p.N / p.Nu * p.Mu
	// Total inter-rank payload: each rank sends (R-1)/R of its N'/R chunk.
	want := int64(nPrime * 16 * (r - 1) / r)
	if stats.AlltoallBytes != want {
		t.Errorf("all-to-all bytes = %d, want %d ((1+β)N scaled)", stats.AlltoallBytes, want)
	}
}

func TestValidateDistributed(t *testing.T) {
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4, 8} {
		if err := pl.ValidateDistributed(r); err != nil {
			t.Errorf("R=%d should be valid: %v", r, err)
		}
	}
	bad := map[int]string{
		0:  "must be positive",
		3:  "must divide segments",
		16: "must divide segments",
	}
	for r, frag := range bad {
		err := pl.ValidateDistributed(r)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("R=%d: err %v, want fragment %q", r, err, frag)
		}
	}
	// Halo overflow: B large relative to per-rank block.
	p2 := Params{N: 512, P: 8, Mu: 5, Nu: 4, B: 64}
	pl2, err := NewPlan(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl2.ValidateDistributed(8); err == nil || !strings.Contains(err.Error(), "halo") {
		t.Errorf("expected halo error, got %v", err)
	}
}

func TestRunDistributedBadLocalLength(t *testing.T) {
	p := Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := mpi.NewWorld(2)
	err = w.Run(func(c *mpi.Comm) error {
		buf := make([]complex128, 10)
		_, err := pl.RunDistributed(context.Background(), c, buf, buf)
		return err
	})
	if err == nil {
		t.Error("expected local length error")
	}
}

func TestDistributedTimesAccounting(t *testing.T) {
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 8)
	w, _ := mpi.NewWorld(4)
	nLocal := p.N / 4
	err = w.Run(func(c *mpi.Comm) error {
		out := make([]complex128, nLocal)
		dt, err := pl.RunDistributed(context.Background(), c, out, src[c.Rank()*nLocal:(c.Rank()+1)*nLocal])
		if err != nil {
			return err
		}
		if dt.Total() <= 0 {
			t.Errorf("rank %d: nonpositive total time", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridWorkersBitIdentical(t *testing.T) {
	// Paper Fig 2: MPI ranks × OpenMP threads. Intra-rank workers must
	// not change results (row partitioning only, no re-association).
	base := Params{N: 2048, P: 16, Mu: 5, Nu: 4, B: 32, Workers: 1}
	ref, _, _ := runSOIDistributed(t, base, 4, 55)
	hybrid := base
	hybrid.Workers = 4
	got, _, _ := runSOIDistributed(t, hybrid, 4, 55)
	if e := signal.MaxAbsErr(got, ref); e != 0 {
		t.Errorf("hybrid workers changed the result by %.3e", e)
	}
}

func TestRunDistributedSegment(t *testing.T) {
	p := Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 91)
	full := make([]complex128, p.N)
	if err := pl.Transform(full, src); err != nil {
		t.Fatal(err)
	}
	const ranks, seg, root = 4, 5, 2
	w, _ := mpi.NewWorld(ranks)
	nLocal := p.N / ranks
	var got []complex128
	err = w.Run(func(c *mpi.Comm) error {
		out, err := pl.RunDistributedSegment(c,
			src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], seg, root)
		if err != nil {
			return err
		}
		if c.Rank() == root {
			got = out
		} else if out != nil {
			t.Error("non-root rank received data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := pl.M()
	if e := signal.MaxAbsErr(got, full[seg*m:(seg+1)*m]); e > 1e-10 {
		t.Errorf("distributed segment differs from full transform by %.3e", e)
	}
	// No all-to-all at all: just halo sends and a gather.
	if a := w.Stats().Alltoalls; a != 0 {
		t.Errorf("segment query used %d all-to-alls, want 0", a)
	}

	// Error paths.
	w2, _ := mpi.NewWorld(4)
	err = w2.Run(func(c *mpi.Comm) error {
		_, err := pl.RunDistributedSegment(c, make([]complex128, nLocal), 99, 0)
		return err
	})
	if err == nil {
		t.Error("expected segment range error")
	}
}
