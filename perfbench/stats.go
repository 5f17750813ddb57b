package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile
// level before that level is reported: a p99 needs at least 1000 samples,
// a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, which
// it sorts in place. ok is false when fewer than minBeyond samples lie
// beyond the level, in which case the level is not reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[rank-1], true
}

// median is the middle value of xs (mean of the two middle values for an
// even count); it sorts xs in place and returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// interval is a half-open span of monotonic time [start, end).
type interval struct{ start, end time.Duration }

// selfTime is the part of parent that none of the children cover: the
// parent's length minus the union of the children clipped to it, so
// overlapping children (concurrent domain calls) are not subtracted twice.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
