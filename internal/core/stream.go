package core

import (
	"context"
	"fmt"
	"time"

	"soifft/internal/adapt"
	"soifft/internal/exch"
	"soifft/internal/instrument"
)

// This file is the distributed driver's one exchange executor: the
// producer fans phase-1/2 output out tile by tile while later tiles are
// still convolving, and a consumer goroutine collects arriving chunks
// into per-source buffers. Wire time hides behind compute;
// DistributedTimes.Exchange reports only the un-hidden remainder (send
// backpressure plus the post-compute tail), and the overlapped span is
// booked via Recorder.AddHiddenExchange. Erasure coding is an optional
// tail on the same executor (coded.go), not a second exchange.
//
// The chunk schedule is derived identically on every rank from the plan
// and the world size alone: tile k covers convolution blocks
// [bounds[k], bounds[k+1]), and the chunk for (src→dst, k) is lanes
// [bounds[k]·spr, bounds[k+1]·spr) of dst's per-source chunk — a
// contiguous span of the packed send buffer, so the chunks partition
// the exchange payload exactly (the analytic 16·(1+β)·N·(R−1)/R budget)
// and the spectra are bit-identical for every window.

// tileBounds splits this rank's bpr convolution blocks into T tiles.
// Without a window T = 1: the one-tile schedule convolves every block
// and then sends, as a blocking all-to-all would. With a window w,
// T = min(bpr, max(4, 2·w)): enough tiles to keep the window busy, never
// more than one block each. bounds has T+1 entries.
//
// The schedule must come out identical on every rank — receivers size
// the expected chunks from their own bounds. A fixed WithAsyncWindow(w)
// is rank-invariant by construction; under the adaptive controller the
// per-rank windows diverge between transforms, so the schedule is
// pinned to the controller's rank-invariant ceiling (the world size)
// and the live window steers only the per-destination credit depth.
func (e *distExec) tileBounds() []int {
	w := e.window
	if e.adaptive {
		if w = e.r; w < 2 {
			w = 2
		}
	}
	if w == 0 {
		return []int{0, e.bpr}
	}
	T := 2 * w
	if T < 4 {
		T = 4
	}
	if T > e.bpr {
		T = e.bpr
	}
	bounds := make([]int, T+1)
	for k := 0; k <= T; k++ {
		bounds[k] = k * e.bpr / T
	}
	return bounds
}

// inbox is the receive side of one streamed exchange, filled by the
// consumer goroutine while later tiles are still on the wire.
type inbox struct {
	recv [][]complex128 // recv[src] = C_{src→rank}; nil until its first tile lands
	lost []bool         // the source's stream failed before its last tile
	loss error          // the first per-source stream failure, in arrival order
	err  error          // the first malformed chunk (a schedule divergence)
	done chan struct{}  // closed when the consumer returns
}

// wait blocks until the consumer has drained the stream and returns the
// first malformed-chunk error. The fields are safe to read after it.
func (in *inbox) wait() error {
	<-in.done
	return in.err
}

// exchange runs phases 1–3 over the chunk stream and returns every
// source's chunk addressed to this rank (self included). With cx nil it
// fails fast: on the first send error, or else the first per-source
// stream failure. With cx set, the coding tail runs after the produce
// loop — parity encode and send, the failpoint, the parity receive and
// detect/recover — and a non-nil *DegradedError reports a
// reconstruction.
func (e *distExec) exchange(ctx context.Context, localIn []complex128, cx *codedExchange) (recv [][]complex128, deg *DegradedError, err error) {
	rank, chunk := e.rank, e.chunk
	bounds := e.tileBounds()
	sizes := make([]int, len(bounds)-1)
	for k := range sizes {
		sizes[k] = (bounds[k+1] - bounds[k]) * e.spr
	}
	st := e.c.(StreamComm).StartAlltoallv(exch.Options{Sizes: sizes, Window: e.window})
	if rank == 0 {
		e.cnt.CountAlltoallOp() // once per world, like mpi.World's statistics
	}
	e.tr.Counter(e.tid, rank, "adaptive_window", int64(e.window))

	in := &inbox{recv: make([][]complex128, e.r), lost: make([]bool, e.r), done: make(chan struct{})}
	go e.drainStream(st, bounds, in)
	// Whatever the outcome, the consumer is drained before this frame
	// returns: its receive loops are deadline-bounded, and Close aborts
	// the slots a producer that bailed mid-schedule left unfilled.
	defer func() {
		st.Close()
		<-in.done
	}()

	var onSendErr func(dst int, err error) error
	if cx != nil {
		onSendErr = func(dst int, err error) error {
			cx.markDead(dst) // route around the dead peer; detection settles it
			return nil
		}
	}
	send, sendWait, firstSend, err := e.produceStream(ctx, st, bounds, localIn, onSendErr)

	// The tail: everything after the produce loop is visible exchange
	// time; everything between the first chunk send and here, other than
	// send backpressure, ran behind compute.
	tail := time.Now()
	e.tr.Begin(e.tid, rank, instrument.StageExchange.String())
	if err == nil {
		in.recv[rank] = send[rank*chunk : (rank+1)*chunk]
		if cx != nil {
			deg, err = cx.run(send, in)
		} else if err = in.wait(); err == nil {
			err = in.loss
		}
	}
	e.dt.Exchange = sendWait + time.Since(tail)
	e.tr.End(e.tid, rank, instrument.StageExchange.String())
	var hidden time.Duration
	if !firstSend.IsZero() {
		hidden = tail.Sub(firstSend) - sendWait
	}
	if e.timed && hidden > 0 {
		e.rec.AddHiddenExchange(hidden)
	}
	if err != nil {
		return nil, nil, err
	}
	// Degraded-but-complete runs still carry a valid overlap measurement;
	// only failed runs skip the controller.
	if e.adaptive {
		e.observeAdaptive(hidden, sendWait)
	}
	return in.recv, deg, nil
}

// produceStream is the tile-wise phase 1–2: halo exchange, then per tile
// convolve + block-FFT + pack + fan out, so destination links carry tile
// k while tile k+1 is still convolving. Within a tile, the rows whose
// taps stay inside the owned block convolve before the halo wait, so the
// halo flight overlaps them on every schedule. The packed send buffer is
// persistent and written once per region — in-flight chunks reference
// it until their frames flush; it is returned because the self-chunk
// and the coding tail's parity read it after the fan-out. sendWait is
// the cumulative time Send spent blocked on window backpressure, and
// firstSend when the first chunk went out (zero if none did). A nil
// onSendErr fails fast on the first send error; the coded path passes a
// callback that marks the destination dead and continues.
func (e *distExec) produceStream(ctx context.Context, st exch.Stream, bounds []int, localIn []complex128, onSendErr func(dst int, err error) error) (send []complex128, sendWait time.Duration, firstSend time.Time, err error) {
	pl, p, rank, r := e.pl, e.pl.prm, e.rank, e.r

	// Phase 1: post the halo prefix(es) immediately; the receive is
	// deferred until the first rows that read past the owned block.
	halo := pl.HaloLen()
	t0 := time.Now()
	e.tr.Begin(e.tid, rank, instrument.StageHalo.String())
	ext := make([]complex128, e.nLocal+halo)
	copy(ext, localIn)
	var hs *haloStream
	if r > 1 {
		hs, err = e.startHaloStream(localIn, ext)
	}
	e.dt.Halo += time.Since(t0)
	e.tr.End(e.tid, rank, instrument.StageHalo.String())
	if err != nil {
		return nil, 0, firstSend, err
	}
	haveHalo := false
	waitHalo := func() error {
		if haveHalo {
			return nil
		}
		haveHalo = true
		t0 := time.Now()
		e.tr.Begin(e.tid, rank, instrument.StageHalo.String())
		defer func() {
			e.dt.Halo += time.Since(t0)
			e.tr.End(e.tid, rank, instrument.StageHalo.String())
		}()
		if hs == nil {
			copy(ext[e.nLocal:], localIn[:halo])
			return nil
		}
		return hs.wait()
	}

	// mid: first local row whose convolution taps leave the owned block.
	jLo := rank * e.bpr
	mid := 0
	for mid < e.bpr && pl.rowEndCol(jLo+mid) <= (rank+1)*e.nLocal {
		mid++
	}

	maxTile := 0
	for k := 0; k+1 < len(bounds); k++ {
		if w := bounds[k+1] - bounds[k]; w > maxTile {
			maxTile = w
		}
	}
	send = make([]complex128, e.bpr*p.P) // persistent: dst t's chunk at [t·chunk, (t+1)·chunk)
	conv := make([]complex128, maxTile*p.P)
	v := make([]complex128, maxTile*p.P)
	// convolve runs phase 2 for rows [a, b) of the tile starting at lo:
	// convolution rows and their P-point FFTs.
	convolve := func(lo, a, b int) {
		parfor(e.workers, b-a, func(i, j int) {
			w0 := time.Now()
			x, y := (a-lo+i)*p.P, (a-lo+j)*p.P
			pl.ConvolveRange(conv[x:y], ext, jLo+a+i, jLo+a+j, rank*e.nLocal)
			pl.BlockFFTBatch(v[x:y], conv[x:y], j-i)
			if e.timed {
				e.convBusy.Add(int64(time.Since(w0)))
			}
		})
	}

	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		t0 := time.Now()
		e.tr.Begin(e.tid, rank, instrument.StageConvolve.String())
		split := min(max(mid, lo), hi)
		convolve(lo, lo, split)
		if split < hi {
			e.dt.Convolve += time.Since(t0)
			if err := waitHalo(); err != nil {
				e.tr.End(e.tid, rank, instrument.StageConvolve.String())
				return send, sendWait, firstSend, err
			}
			t0 = time.Now()
			convolve(lo, split, hi)
		}
		// The node-local pack: lanes [t·spr, (t+1)·spr) of each block go
		// to destination t (paper Fig 3).
		for t := 0; t < r; t++ {
			base := t * e.chunk
			for j := lo; j < hi; j++ {
				copy(send[base+j*e.spr:base+(j+1)*e.spr], v[(j-lo)*p.P+t*e.spr:(j-lo)*p.P+(t+1)*e.spr])
			}
		}
		e.dt.Convolve += time.Since(t0)
		e.tr.End(e.tid, rank, instrument.StageConvolve.String())
		if k+2 == len(bounds) {
			// The last fan-out needs only the packed buffer: release the
			// work buffers first, so a transport that copies payloads on
			// send does not stack its copies on top of them.
			ext, conv, v = nil, nil, nil
		}

		// Fan tile k out, neighbours first, self last; Send blocks only on
		// the in-flight window (wire pacing), which we book as visible
		// exchange time.
		for off := 0; off < r; off++ {
			dst := (rank + 1 + off) % r
			data := send[dst*e.chunk+lo*e.spr : dst*e.chunk+hi*e.spr]
			if dst != rank {
				// Summed over the schedule, the chunks partition the
				// (R−1)·chunk elements this rank addresses to its peers:
				// the analytic 16·(1+β)·N·(R−1)/R budget at any window.
				e.cnt.CountAlltoallBytes(int64(len(data)) * 16)
				e.cnt.CountStreamChunk()
			}
			w0 := time.Now()
			if firstSend.IsZero() {
				firstSend = w0
			}
			e.tr.ChunkBegin(e.tid, rank, "exchange_chunk_send", k)
			serr := st.Send(dst, k, data)
			e.tr.ChunkEnd(e.tid, rank, "exchange_chunk_send", k)
			sendWait += time.Since(w0)
			if serr != nil {
				if onSendErr == nil {
					return send, sendWait, firstSend, serr
				}
				if err := onSendErr(dst, serr); err != nil {
					return send, sendWait, firstSend, err
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return send, sendWait, firstSend, err
		}
	}
	return send, sendWait, firstSend, nil
}

// drainStream collects arriving chunks into the per-source buffers — the
// receive side of the stride-P exchange, overlapped with the wire. A
// tile that spans the whole per-source chunk (the one-tile schedule) is
// adopted as is: the transport hands each received payload over to the
// receiver. Smaller tiles are copied into place. A per-source failure
// marks the source lost and ends its stream (the tracker retires its
// remaining slots); a malformed chunk is recorded as the inbox error. It
// closes in.done on return.
func (e *distExec) drainStream(st exch.Stream, bounds []int, in *inbox) {
	defer close(in.done)
	for {
		ch, ok := st.Next()
		if !ok {
			return
		}
		if ch.Err != nil {
			in.lost[ch.Src] = true
			if in.loss == nil {
				in.loss = ch.Err
			}
			continue
		}
		lo, hi := bounds[ch.Index], bounds[ch.Index+1]
		if len(ch.Data) != (hi-lo)*e.spr {
			if in.err == nil {
				in.err = fmt.Errorf("core: rank %d: malformed stream chunk %d from rank %d: %d elements, want %d: %w",
					e.rank, ch.Index, ch.Src, len(ch.Data), (hi-lo)*e.spr, ErrLength)
			}
			continue
		}
		if ch.Src == e.rank {
			continue // the self-chunk aliases the packed send buffer
		}
		e.tr.ChunkInstant(e.tid, e.rank, "exchange_chunk_recv", ch.Index)
		switch {
		case hi-lo == e.bpr:
			in.recv[ch.Src] = ch.Data
		case in.recv[ch.Src] == nil:
			in.recv[ch.Src] = make([]complex128, e.chunk)
			fallthrough
		default:
			copy(in.recv[ch.Src][lo*e.spr:hi*e.spr], ch.Data)
		}
	}
}

// observeAdaptive feeds this run's measured overlap back to the plan's
// window controller so the next transform starts at the adapted window.
// Called only on successful runs whose window the controller chose; the
// decision is traced with bounded-cardinality names so long campaigns
// don't grow the tracer's interned-name table.
func (e *distExec) observeAdaptive(hidden, sendWait time.Duration) {
	visible := e.dt.Exchange
	m := adapt.Measurement{Window: e.window}
	if total := hidden + visible; total > 0 {
		m.OverlapRatio = float64(hidden) / float64(total)
	}
	if visible > 0 {
		m.StallShare = float64(sendWait) / float64(visible)
		if m.StallShare > 1 {
			m.StallShare = 1
		}
	}
	if e.dt.Convolve > 0 {
		m.WireComputeRatio = float64(hidden+visible) / float64(e.dt.Convolve)
	}
	d := e.pl.adaptObserve(e.rank, m)
	e.tr.Counter(e.tid, e.rank, "adaptive_window", int64(d.Window))
	if d.Changed {
		e.tr.ChunkInstant(e.tid, e.rank, "adaptive_decision", d.Window)
	}
}
