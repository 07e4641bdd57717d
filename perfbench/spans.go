package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one transform (or one serve
// request) share Op; Parent links a call to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Rank   int    `json:"rank"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Tag    int    `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory span buffer; a run that would exceed it
// keeps counting into dropped instead of growing without limit.
const maxSpans = 1 << 21

// recorder keeps spans in memory until the run ends. A nil *recorder is
// valid and records nothing, so untraced runs pay one pointer test.
type recorder struct {
	epoch   time.Time
	ids     atomic.Int64
	ops     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp returns a fresh per-transform identifier (0 when not tracing).
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	return r.ops.Add(1)
}

// openSpan is a span whose end has not been recorded yet.
type openSpan struct {
	r *recorder
	s span
}

// begin opens a span; the caller must call end on the result.
func (r *recorder) begin(name string, op, parent int64, rank int) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{r: r, s: span{
		ID: r.ids.Add(1), Parent: parent, Op: op, Rank: rank, Name: name,
		Start: int64(time.Since(r.epoch)),
	}}
}

// id is the span's identifier, for children to name as their parent.
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span, attributing bytes of payload to it.
func (o openSpan) end(bytes int64) {
	if o.r == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.s.Bytes = bytes
	o.r.mu.Lock()
	if len(o.r.spans) < maxSpans {
		o.r.spans = append(o.r.spans, o.s)
	} else {
		o.r.dropped++
	}
	o.r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans in start order.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores every span as one JSON document at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	dropped := r.dropped
	r.mu.Unlock()
	doc := struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, r.snapshot()}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanIndex answers the per-layer questions the report asks of a set of
// spans: per-rank sums by name and self time.
type spanIndex struct {
	byParent map[int64][]span
	spans    []span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byParent: map[int64][]span{}, spans: spans}
	for _, s := range spans {
		ix.byParent[s.Parent] = append(ix.byParent[s.Parent], s)
	}
	return ix
}

// named returns every span called name.
func (ix spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// childMs returns, for each span called parentName, the summed
// duration in ms of its direct children called name.
func (ix spanIndex) childMs(parentName, name string) []float64 {
	var ms []float64
	for _, p := range ix.named(parentName) {
		var d time.Duration
		for _, c := range ix.byParent[p.ID] {
			if c.Name == name {
				d += c.dur()
			}
		}
		ms = append(ms, msOf(d))
	}
	return ms
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (children may overlap: a streamed exchange sends and
// receives on two goroutines at once, so the union is taken).
func (ix spanIndex) selfTime(p span) time.Duration {
	kids := ix.byParent[p.ID]
	iv := make([][2]int64, 0, len(kids))
	for _, c := range kids {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		covered += curHi - curLo
	}
	return p.dur() - time.Duration(covered)
}
