package core

import (
	"context"
	"math/cmplx"
)

// InverseTransform computes dst = IDFT(src), scaled by 1/N so a
// forward-inverse round trip reproduces the input. It reuses the forward
// SOI factorization through the conjugation identity
//
//	IDFT(y) = conj(DFT(conj(y))) / N,
//
// so the inverse inherits the single-all-to-all property unchanged.
func (pl *Plan) InverseTransform(dst, src []complex128) error {
	return pl.InverseTransformContext(context.Background(), dst, src)
}

// InverseTransformContext is InverseTransform with the forward path's
// cancellation checks at stage boundaries.
func (pl *Plan) InverseTransformContext(ctx context.Context, dst, src []complex128) error {
	tmp := make([]complex128, len(src))
	conjInto(tmp, src)
	if err := pl.TransformContext(ctx, dst, tmp); err != nil {
		return err
	}
	conjScale(dst, 1/float64(pl.prm.N))
	return nil
}

// RunDistributedInverse is the distributed counterpart of
// InverseTransform: conjugation and scaling are rank-local, so the
// communication profile is identical to the forward run (one halo
// exchange plus a single all-to-all), and the forward driver's options
// (WithAsyncWindow, WithCoding, WithRecorder) apply unchanged.
func (pl *Plan) RunDistributedInverse(ctx context.Context, c Comm, localOut, localIn []complex128, opts ...DistOption) (DistributedTimes, error) {
	tmp := make([]complex128, len(localIn))
	conjInto(tmp, localIn)
	dt, err := pl.RunDistributed(ctx, c, localOut, tmp, opts...)
	if err != nil {
		return dt, err
	}
	conjScale(localOut, 1/float64(pl.prm.N))
	return dt, nil
}

func conjInto(dst, src []complex128) {
	for i, v := range src {
		dst[i] = cmplx.Conj(v)
	}
}

func conjScale(x []complex128, s float64) {
	for i, v := range x {
		x[i] = complex(real(v)*s, -imag(v)*s)
	}
}
