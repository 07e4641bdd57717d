package main

import (
	"soifft/internal/core"
	"soifft/internal/exch"
)

// timedComm wraps one rank's transport for one transform and records a
// span, with the payload bytes sent to other ranks, around every call
// core.Plan.RunDistributed makes into it. Span names carry the
// transport's layer name ("mpi" or "mpinet"); streamed-exchange calls are
// named "exch.*" whatever the transport.
//
// RunDistributed discovers optional capabilities by type assertion, so the
// wrapper must expose exactly the capabilities of the transport it wraps:
// wrapComm picks one of four types accordingly, and a wrapped run takes
// the same code path as an unwrapped one.
type timedComm struct {
	core.Comm
	layer  string
	rec    *recorder
	op     int64
	parent int64
}

// wrapComm returns c wrapped for one transform whose rank span is parent.
func wrapComm(c core.Comm, layer string, rec *recorder, op, parent int64) core.Comm {
	t := &timedComm{Comm: c, layer: layer, rec: rec, op: op, parent: parent}
	_, checked := c.(core.CheckedComm)
	_, streams := c.(core.StreamComm)
	switch {
	case checked && streams:
		return &timedFullComm{t}
	case checked:
		return &timedCheckedComm{t}
	case streams:
		return &timedStreamComm{t}
	}
	return t
}

func (t *timedComm) begin(name string) openSpan {
	return t.rec.begin(name, t.op, t.parent, t.Rank())
}

// beginTag opens a span for a tagged message, keeping the tag so the
// report can tell halo traffic (positive tags) from exchange traffic.
func (t *timedComm) beginTag(name string, tag int) openSpan {
	s := t.begin(name)
	s.s.Tag = tag
	return s
}

// payload counts the bytes a call moves to another rank.
func (t *timedComm) payload(to int, data any) int64 {
	if to == t.Rank() {
		return 0
	}
	switch d := data.(type) {
	case []complex128:
		return int64(len(d)) * 16
	case []float64:
		return int64(len(d)) * 8
	case []byte:
		return int64(len(d))
	}
	return 0
}

func (t *timedComm) Send(to, tag int, data any) {
	s := t.beginTag(t.layer+".send", tag)
	defer s.end(t.payload(to, data))
	t.Comm.Send(to, tag, data)
}

func (t *timedComm) RecvC(from, tag int) []complex128 {
	s := t.beginTag(t.layer+".recv_wait", tag)
	defer s.end(0)
	return t.Comm.RecvC(from, tag)
}

func (t *timedComm) Alltoall(send []complex128, chunk int) []complex128 {
	s := t.begin(t.layer + ".alltoall")
	defer s.end(int64(t.Size()-1) * int64(chunk) * 16)
	return t.Comm.Alltoall(send, chunk)
}

func (t *timedComm) PairwiseAlltoallv(send []complex128, sendCounts, recvCounts []int) []complex128 {
	var n int64
	for to, cnt := range sendCounts {
		if to != t.Rank() {
			n += int64(cnt) * 16
		}
	}
	s := t.begin(t.layer + ".alltoall")
	defer s.end(n)
	return t.Comm.PairwiseAlltoallv(send, sendCounts, recvCounts)
}

func (t *timedComm) sendChecked(to, tag int, data any) error {
	s := t.beginTag(t.layer+".checked_send", tag)
	defer s.end(t.payload(to, data))
	return t.Comm.(core.CheckedComm).SendChecked(to, tag, data)
}

func (t *timedComm) recvCChecked(from, tag int) ([]complex128, error) {
	s := t.beginTag(t.layer+".checked_recv_wait", tag)
	defer s.end(0)
	return t.Comm.(core.CheckedComm).RecvCChecked(from, tag)
}

func (t *timedComm) startAlltoallv(o exch.Options) exch.Stream {
	s := t.begin("exch.start")
	defer s.end(0)
	return &timedStream{Stream: t.Comm.(core.StreamComm).StartAlltoallv(o), t: t}
}

type timedCheckedComm struct{ *timedComm }

func (c *timedCheckedComm) SendChecked(to, tag int, data any) error {
	return c.sendChecked(to, tag, data)
}

func (c *timedCheckedComm) RecvCChecked(from, tag int) ([]complex128, error) {
	return c.recvCChecked(from, tag)
}

type timedStreamComm struct{ *timedComm }

func (c *timedStreamComm) StartAlltoallv(o exch.Options) exch.Stream { return c.startAlltoallv(o) }

type timedFullComm struct{ *timedComm }

func (c *timedFullComm) SendChecked(to, tag int, data any) error {
	return c.sendChecked(to, tag, data)
}

func (c *timedFullComm) RecvCChecked(from, tag int) ([]complex128, error) {
	return c.recvCChecked(from, tag)
}

func (c *timedFullComm) StartAlltoallv(o exch.Options) exch.Stream { return c.startAlltoallv(o) }

// timedStream times the streamed exchange: how long the producer blocks
// in Send (credit window and wire) and the consumer waits in Next.
type timedStream struct {
	exch.Stream
	t *timedComm
}

func (s *timedStream) Send(dst, idx int, data []complex128) error {
	sp := s.t.begin("exch.send_block")
	var n int64
	if dst != s.t.Rank() {
		n = int64(len(data)) * 16
	}
	defer sp.end(n)
	return s.Stream.Send(dst, idx, data)
}

func (s *timedStream) Next() (exch.Chunk, bool) {
	sp := s.t.begin("exch.next_wait")
	defer sp.end(0)
	return s.Stream.Next()
}
