// Package exch defines the chunked, windowed, asynchronous all-to-all
// stream the distributed SOI driver uses to hide wire time behind
// convolution. It is a leaf package: both transports (internal/mpi,
// internal/mpinet) implement the Stream surface against these types, and
// internal/core consumes it, so the three packages agree on one schedule
// and one event shape without import cycles.
//
// Protocol: all ranks derive the same chunk schedule (Options.Sizes, an
// element count per chunk index) and each rank streams chunk idx to
// destination dst as soon as the data exists, tagged Tag(idx). Per link,
// chunks travel strictly in index order, so the receive side needs no
// reordering. A bounded per-destination window (Options.Window) caps how
// many chunks may be queued-but-unflushed per link; Send blocks on the
// window (backpressure) rather than buffering without limit. Each chunk
// is delivered — or fails — independently: a dead or hung source yields
// one Chunk with Err set (typed, deadline-bounded by the transport) and
// ends that source's stream without disturbing the others.
package exch

import "sync"

// TagBase is the top of the stream tag band: chunk idx travels with tag
// TagBase-idx. The band grows downward from -2000, clear of both
// transports' collective tags (mpi -1..-6 and the pairwise -6-d series,
// mpinet -4..-7), the positive halo band, and the coded-exchange bands
// (-1000..-1400s).
const TagBase = -2000

// Tag returns the wire tag of chunk index idx.
func Tag(idx int) int { return TagBase - idx }

// The halo exchange streams through the same chunk-schedule idea as the
// all-to-all, but over the transports' ordinary (positive-tag) mailboxes:
// the neighbour prefix to depth d is split into HaloSizes chunks, each
// sent checked with HaloTag(d, i), and the boundary tiles of the
// streamed producer wait only for the residual chunks still in flight.
// Per link the chunks are the only ordinary-tag traffic during the
// produce loop, so both transports' FIFO pop order matches the send
// order, and any coded-exchange parity frames queue strictly behind the
// last chunk.

// MaxHaloChunks caps the chunk schedule per neighbour link.
const MaxHaloChunks = 8

// minHaloChunkElems floors the chunk size at 16 Ki complex elements
// (one 256 KiB frame, the transports' I/O chunk), so a modest halo
// travels as the single frame the blocking swap would send — per-frame
// costs (headers, shaper pacing, syscalls) are amortized exactly as
// before — and only a halo big enough to be worth overlapping splits.
const minHaloChunkElems = 16384

// HaloTagBase is the bottom of the positive halo-stream band, above the
// blocking halo tags (100+d, d < world size).
const HaloTagBase = 200

// HaloTag returns the wire tag of halo chunk i to neighbour depth d
// (d ≥ 1, i < MaxHaloChunks).
func HaloTag(d, i int) int { return HaloTagBase + d*MaxHaloChunks + i }

// HaloSizes splits a halo prefix of total elements into the chunk
// schedule — near-equal chunks, at most MaxHaloChunks, none smaller
// than minHaloChunkElems (except the sole chunk of a tiny halo). Both
// ends derive it independently from total alone.
func HaloSizes(total int) []int {
	if total <= 0 {
		return nil
	}
	n := (total + minHaloChunkElems - 1) / minHaloChunkElems
	if n > MaxHaloChunks {
		n = MaxHaloChunks
	}
	sizes := make([]int, n)
	lo := 0
	for i := range sizes {
		hi := (i + 1) * total / n
		sizes[i] = hi - lo
		lo = hi
	}
	return sizes
}

// Chunk is one delivered piece of a streamed all-to-all: chunk Index of
// source rank Src's contribution to this rank, or — when Err is non-nil
// — the typed failure that ended Src's stream (Data is nil then, and no
// further chunks from Src will arrive).
type Chunk struct {
	Src   int
	Index int
	Data  []complex128
	Err   error
}

// Options is the shared schedule of one streamed all-to-all. Every rank
// must start its stream with identical Sizes; Window is local pacing and
// may differ per rank.
type Options struct {
	// Sizes holds the element count of each chunk index; the same
	// schedule applies to every (source, destination) pair.
	Sizes []int
	// Window caps the queued-but-unflushed chunks per destination link;
	// values below 1 are treated as 1. Transports whose sends complete
	// synchronously (the in-process runtime) treat every send as
	// immediately flushed, so the window never blocks there.
	Window int
}

// Stream is a handle on one in-flight chunked all-to-all. One goroutine
// may call Send (the producer) while one other calls Next (the
// consumer); neither method is safe for further concurrency.
type Stream interface {
	// Send queues chunk idx for destination dst (dst may be this rank:
	// self-chunks are delivered through Next like any other, keeping the
	// consumer uniform). It blocks while dst's in-flight window is full
	// and returns the transport's typed error if the link is dead; a
	// non-nil error means the chunk was not delivered.
	Send(dst, idx int, data []complex128) error
	// Next blocks for the next chunk from any source, in arrival order.
	// ok=false means every source has either delivered all its chunks or
	// failed (each failure was yielded once as a Chunk with Err set).
	Next() (Chunk, bool)
	// Close abandons the stream: the consumer's next Next returns
	// ok=false even if chunk slots are still outstanding (a producer
	// that failed mid-schedule can never fill its own self-delivery
	// slots, so the consumer must not wait for them). Buffering
	// guarantees that transport goroutines never block on an abandoned
	// stream, so Close never waits; in-flight frames from peers stay in
	// their per-link mailboxes.
	Close()
}

// Conn is the checked peer-messaging surface the generic Stream
// implementation runs on; *mpi.Comm satisfies it (and *mpinet.Proc would,
// though mpinet ships its own natively windowed implementation).
type Conn interface {
	Rank() int
	Size() int
	SendChecked(to, tag int, data any) error
	RecvCChecked(from, tag int) ([]complex128, error)
}

// Tracker is the consumer-side bookkeeping shared by Stream
// implementations: a buffered event channel sized so producers can never
// block (even on an abandoned stream), and the completion arithmetic for
// Next. Deliver may be called from any goroutine; Next from exactly one.
type Tracker struct {
	events    chan Chunk
	chunks    int   // schedule length per source
	remaining int   // chunk slots still outstanding
	got       []int // delivered count per source
	aborted   chan struct{}
	abortOnce sync.Once
}

// NewTracker sizes the bookkeeping for size ranks and a chunks-long
// schedule. The channel holds the worst case — every chunk plus one
// failure event per source — so Deliver is always non-blocking.
func NewTracker(size, chunks int) *Tracker {
	return &Tracker{
		events:    make(chan Chunk, size*(chunks+1)),
		chunks:    chunks,
		remaining: size * chunks,
		got:       make([]int, size),
		aborted:   make(chan struct{}),
	}
}

// Deliver hands one chunk (or one per-source failure) to the consumer.
func (t *Tracker) Deliver(c Chunk) { t.events <- c }

// Abort ends the stream from the producer side: Next stops waiting and
// reports completion even with slots outstanding. This is how a
// producer that failed mid-schedule (and so can never fill its own
// self-delivery slots) releases a consumer blocked on them. Idempotent
// and safe concurrently with Next.
func (t *Tracker) Abort() { t.abortOnce.Do(func() { close(t.aborted) }) }

// Next implements Stream.Next over the delivered events.
func (t *Tracker) Next() (Chunk, bool) {
	if t.remaining <= 0 {
		return Chunk{}, false
	}
	var c Chunk
	select {
	case c = <-t.events:
	case <-t.aborted:
		return Chunk{}, false
	}
	if c.Err != nil {
		// The source's stream is over: retire its undelivered slots.
		t.remaining -= t.chunks - t.got[c.Src]
		t.got[c.Src] = t.chunks
		return c, true
	}
	t.got[c.Src]++
	t.remaining--
	return c, true
}

// stream is the generic Stream over a checked point-to-point Conn. Sends
// delegate to SendChecked (window pacing is left to the transport: on
// the in-process runtime sends are buffered and complete immediately);
// one goroutine per source drives sequential checked receives.
type stream struct {
	c   Conn
	o   Options
	trk *Tracker
}

// Start begins a streamed all-to-all over c with the given schedule.
// Every rank of the world must start a stream with the same Sizes before
// blocking on Next, or peers stall until their transport deadlines.
func Start(c Conn, o Options) Stream {
	s := &stream{c: c, o: o, trk: NewTracker(c.Size(), len(o.Sizes))}
	for src := 0; src < c.Size(); src++ {
		if src != c.Rank() {
			go s.recvLoop(src)
		}
	}
	return s
}

func (s *stream) Send(dst, idx int, data []complex128) error {
	if dst == s.c.Rank() {
		s.trk.Deliver(Chunk{Src: dst, Index: idx, Data: data})
		return nil
	}
	return s.c.SendChecked(dst, Tag(idx), data)
}

func (s *stream) recvLoop(src int) {
	for idx := range s.o.Sizes {
		data, err := s.c.RecvCChecked(src, Tag(idx))
		if err != nil {
			s.trk.Deliver(Chunk{Src: src, Err: err})
			return
		}
		s.trk.Deliver(Chunk{Src: src, Index: idx, Data: data})
	}
}

func (s *stream) Next() (Chunk, bool) { return s.trk.Next() }

func (s *stream) Close() { s.trk.Abort() }
