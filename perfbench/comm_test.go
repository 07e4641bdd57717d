package main

import (
	"context"
	"errors"
	"sync"
	"testing"

	"soifft/internal/core"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// transport runs one distributed transform over two ranks and reports
// the payload bytes its own counters saw.
type transport struct {
	name  string
	layer string
	run   func(t *testing.T, fn func(c core.Comm) error) (payload int64)
}

func mpiTransport() transport {
	return transport{name: "mpi", layer: "mpi", run: func(t *testing.T, fn func(c core.Comm) error) int64 {
		w, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(c *mpi.Comm) error { return fn(c) }); err != nil {
			t.Fatal(err)
		}
		return w.Stats().P2PBytes
	}}
}

func mpinetTransport() transport {
	return transport{name: "mpinet", layer: "mpinet", run: func(t *testing.T, fn func(c core.Comm) error) int64 {
		procs, err := connectMesh(2)
		if err != nil {
			t.Fatal(err)
		}
		defer closeMesh(procs)
		errs := make([]error, len(procs))
		var wg sync.WaitGroup
		for k := range procs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = fn(procs[k])
			}(k)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		// A sender counts a frame after writing it, so a receiver can
		// finish first; Close waits for every writer to drain.
		closeMesh(procs)
		s := meshStats(procs)
		return s.BytesSent - frameHeader*s.FramesSent
	}}
}

// TestTimedCommIsTransparent checks that the timing wrapper changes
// nothing RunDistributed does: over both transports and in blocking,
// streamed, coded and adaptive modes, wrapped and unwrapped runs give
// bit-identical spectra and move the same payload bytes, and the bytes
// the wrapper attributes to its spans are exactly that payload.
func TestTimedCommIsTransparent(t *testing.T) {
	const n = 1 << 12
	plan, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 72})
	if err != nil {
		t.Fatal(err)
	}
	in := signal.Random(n, 7)
	modes := []struct {
		name string
		opts []core.DistOption
	}{
		{"blocking", nil},
		{"streamed-w1", []core.DistOption{core.WithAsyncWindow(1)}},
		{"streamed-w2", []core.DistOption{core.WithAsyncWindow(2)}},
		{"coded", []core.DistOption{core.WithCoding(1)}},
		{"coded-adaptive", []core.DistOption{core.WithCoding(1), core.WithAdaptiveWindow()}},
	}
	for _, tr := range []transport{mpiTransport(), mpinetTransport()} {
		for _, mode := range modes {
			t.Run(tr.name+"/"+mode.name, func(t *testing.T) {
				transform := func(rec *recorder) ([]complex128, int64) {
					out := make([]complex128, n)
					op := rec.newOp()
					payload := tr.run(t, func(c core.Comm) error {
						k := c.Rank()
						s := rec.begin("core.rank", op, 0, k)
						defer s.end(0)
						if rec != nil {
							c = wrapComm(c, tr.layer, rec, op, s.id())
						}
						_, err := plan.RunDistributed(context.Background(), c,
							out[k*n/2:(k+1)*n/2], in[k*n/2:(k+1)*n/2], mode.opts...)
						return err
					})
					return out, payload
				}
				plain, plainBytes := transform(nil)
				rec := newRecorder()
				timed, timedBytes := transform(rec)
				if !bitEqual(plain, timed) {
					t.Fatal("wrapped run's spectrum differs from the unwrapped run's")
				}
				if plainBytes != timedBytes {
					t.Fatalf("payload bytes: unwrapped %d, wrapped %d", plainBytes, timedBytes)
				}
				var spanBytes int64
				for _, s := range rec.snapshot() {
					spanBytes += s.Bytes
				}
				if spanBytes != plainBytes {
					t.Fatalf("spans account for %d payload bytes, transport moved %d", spanBytes, plainBytes)
				}
			})
		}
	}
}

// hidden exposes only the base Comm methods of a transport.
type hidden struct{ core.Comm }

func TestWrapCommKeepsCapabilities(t *testing.T) {
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		for _, tc := range []struct {
			name string
			c    core.Comm
		}{{"full", c}, {"base", hidden{c}}} {
			wc := wrapComm(tc.c, "mpi", nil, 0, 0)
			_, wantChecked := tc.c.(core.CheckedComm)
			_, wantStream := tc.c.(core.StreamComm)
			_, gotChecked := wc.(core.CheckedComm)
			_, gotStream := wc.(core.StreamComm)
			if gotChecked != wantChecked || gotStream != wantStream {
				t.Errorf("%s: wrapper capabilities checked=%v stream=%v, transport checked=%v stream=%v",
					tc.name, gotChecked, gotStream, wantChecked, wantStream)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
