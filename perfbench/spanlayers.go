package main

import (
	"strings"
	"time"
)

// setTransformSpan reports the median duration of the root spans the
// benchmark opened around each traced transform.
func (r *report) setTransformSpan(ix spanIndex, name string) {
	var ms []float64
	for _, s := range ix.named(name) {
		ms = append(ms, msOf(s.dur()))
	}
	r.set("core.transform_ms", median(ms), "ms", len(ms))
}

// setRankLayers reports per-rank time (core.rank spans), self time
// (rank span minus the transport calls under it) and the skew between
// the slowest and fastest rank of each transform. It returns the median
// per-rank time blocked in the transport.
func (r *report) setRankLayers(ix spanIndex) time.Duration {
	ranks := ix.named("core.rank")
	var dur, self, blocked []float64
	lo, hi := map[int64]time.Duration{}, map[int64]time.Duration{}
	for _, s := range ranks {
		d, sf := s.dur(), ix.selfTime(s)
		dur = append(dur, msOf(d))
		self = append(self, msOf(sf))
		blocked = append(blocked, float64(d-sf))
		if v, ok := lo[s.Op]; !ok || d < v {
			lo[s.Op] = d
		}
		if d > hi[s.Op] {
			hi[s.Op] = d
		}
	}
	var skew []float64
	for op, h := range hi {
		skew = append(skew, msOf(h-lo[op]))
	}
	r.set("core.rank_ms", median(dur), "ms", len(dur))
	r.set("core.rank_self_ms", median(self), "ms", len(self))
	r.set("core.rank_skew_ms", median(skew), "ms", len(skew))
	return time.Duration(median(blocked))
}

// setCallLayers reports, for each transport call named in the pairs of
// metric and span name, the median over rank spans of the time one rank
// spent in it during one transform.
func (r *report) setCallLayers(ix spanIndex, metricCall ...[2]string) {
	for _, mc := range metricCall {
		ms := ix.childMs("core.rank", mc[1])
		r.set(mc[0], median(ms), "ms", len(ms))
	}
}

// perOp sums, per traced transform, a quantity over the spans whose name
// starts with prefix and which keep; it returns the median over
// transforms and the number of transforms.
func perOp(ix spanIndex, prefix string, keep func(span) bool, value func(span) float64) (float64, int) {
	tot := map[int64]float64{}
	for _, s := range ix.named("core.rank") {
		tot[s.Op] = 0 // a transform with no matching span counts as zero
	}
	for _, s := range ix.spans {
		if strings.HasPrefix(s.Name, prefix) && keep(s) {
			tot[s.Op] += value(s)
		}
	}
	var xs []float64
	for _, v := range tot {
		xs = append(xs, v)
	}
	return median(xs), len(xs)
}

func all(span) bool            { return true }
func one(span) float64         { return 1 }
func payload(s span) float64   { return float64(s.Bytes) }
func movesPayload(s span) bool { return s.Bytes > 0 }
