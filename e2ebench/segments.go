package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// loopFigures are the timed loop's throughput and latency figures, each the
// median over the loop's segments.
type loopFigures struct {
	plansPerS, p50, p90, coldP50, warmP50 float64
	segments                              int
}

// segmentLen is how many requests a segment spans: whole rounds, enough of
// them for a p90 with ten samples beyond it.
func segmentLen(w *workload) int {
	rounds := (10*minBeyond + w.round - 1) / w.round
	return rounds * w.round
}

// segmentFigures splits the outcomes (in sending order) into segments of
// segLen requests, the remainder joining the last one, computes each
// figure per segment and reports the median across segments, so a
// stretch of the run slowed by something outside the program moves the
// figures less than it would move figures pooled over the whole run.
// Warm latency is taken from the loop only when withWarm is set.
func segmentFigures(outs []outcome, vs []verdict, segLen int, withWarm bool) (loopFigures, error) {
	var rate, p50, p90, cold, warm []float64
	segs := 0
	for lo := 0; lo < len(outs); segs++ {
		hi := lo + segLen
		if len(outs)-hi < segLen {
			hi = len(outs)
		}
		var lat, c, h []float64
		first, last, ok := outs[lo].start, time.Duration(0), 0
		for i := lo; i < hi; i++ {
			o := outs[i]
			ms := float64(o.lat) / 1e6
			lat = append(lat, ms)
			first, last = min(first, o.start), max(last, o.start+o.lat)
			switch {
			case vs[i].ok && vs[i].cached:
				h = append(h, ms)
				ok++
			case vs[i].ok:
				c = append(c, ms)
				ok++
			}
		}
		rate = append(rate, float64(ok)/(last-first).Seconds())
		for _, f := range []struct {
			xs  []float64
			q   float64
			out *[]float64
		}{{lat, 0.5, &p50}, {lat, 0.9, &p90}, {c, 0.5, &cold}, {h, 0.5, &warm}} {
			if v, ok := percentile(f.xs, f.q); ok {
				*f.out = append(*f.out, v)
			}
		}
		lo = hi
	}
	if len(p90) == 0 || len(cold) == 0 || (withWarm && len(warm) == 0) {
		return loopFigures{}, fmt.Errorf("too few samples per segment of %d requests for the percentiles", segLen)
	}
	return loopFigures{median(rate), median(p50), median(p90), median(cold), median(warm), segs}, nil
}

// cpuSteal reads the machine's cumulative steal and total CPU time (in
// clock ticks) from /proc/stat: time the hypervisor ran something else.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
