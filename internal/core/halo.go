package core

import (
	"fmt"

	"soifft/internal/exch"
)

// This file streams the halo exchange — the other communication phase.
// Each neighbour prefix is chunked through the exch.HaloSizes schedule
// over checked sends, and a background receiver assembles arriving
// chunks, so by the time the producer's first boundary rows ask, most
// (or all) of the halo has already landed behind the interior rows'
// convolution; the boundary wait is only the residual chunks in flight.
//
// The chunks ride the transports' ordinary (positive-tag) mailboxes on
// tags exch.HaloTag(d, i). During the produce loop they are the only
// ordinary-tag traffic on their links, so the FIFO pop order matches the
// send order on both transports, and the coded exchange's parity frames
// — sent after the produce loop — queue strictly behind the last chunk.

// haloStream is the receive side of one streamed halo exchange.
type haloStream struct {
	done chan struct{}
	err  error // written before done closes
}

// wait blocks until every halo chunk landed (or the first failure).
func (hs *haloStream) wait() error {
	<-hs.done
	return hs.err
}

// startHaloStream posts this rank's prefix chunks to the preceding
// rank(s) and starts the background receiver assembling the neighbour
// prefix(es) into ext[nLocal:]. The receiver writes only past nLocal
// and the interior rows read only below it, so the two proceed
// concurrently; boundary rows synchronize through wait's channel.
// A send error (dead neighbour link) is returned immediately — the
// halo is not erasure-protected, so there is nothing to route around.
func (e *distExec) startHaloStream(localIn, ext []complex128) (*haloStream, error) {
	cc := e.c.(CheckedComm)
	rank, r := e.rank, e.r
	halo := e.pl.HaloLen()
	for d := 1; (d-1)*e.nLocal < halo; d++ {
		need := halo - (d-1)*e.nLocal
		if need > e.nLocal {
			need = e.nLocal
		}
		dst := (rank - d + r*d) % r
		off := 0
		for i, sz := range exch.HaloSizes(need) {
			if err := cc.SendChecked(dst, exch.HaloTag(d, i), localIn[off:off+sz]); err != nil {
				return nil, err
			}
			e.cnt.CountMessage(int64(sz) * 16)
			e.tr.ChunkInstant(e.tid, rank, "halo_chunk_send", i)
			off += sz
		}
	}
	hs := &haloStream{done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		for d := 1; (d-1)*e.nLocal < halo; d++ {
			need := halo - (d-1)*e.nLocal
			if need > e.nLocal {
				need = e.nLocal
			}
			src := (rank + d) % r
			off := e.nLocal + (d-1)*e.nLocal
			for i, sz := range exch.HaloSizes(need) {
				data, err := cc.RecvCChecked(src, exch.HaloTag(d, i))
				if err != nil {
					hs.err = err
					return
				}
				if len(data) != sz {
					hs.err = fmt.Errorf("core: rank %d: halo chunk %d from %d has %d elements, want %d: %w",
						rank, i, src, len(data), sz, ErrLength)
					return
				}
				e.tr.ChunkInstant(e.tid, rank, "halo_chunk_recv", i)
				copy(ext[off:off+sz], data)
				off += sz
			}
		}
	}()
	return hs, nil
}
