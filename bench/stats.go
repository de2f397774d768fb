package main

import "sort"

// sample is one timed op: its latency and when it completed, both in
// nanoseconds on the workload's timed clock (a clock that only advances
// inside timed sections, so untimed set-up between episodes never shows).
type sample struct {
	end int64
	lat int64
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance procedure for this benchmark uses. Fewer than two values
// have no spread: both quartiles are the single value.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// latencyStats summarises the latencies of a run: the median, and the
// highest percentile that still has at least ten samples beyond it (the
// highest one the sample supports), with that percentile stated.
type latencyStats struct {
	N        int
	P50Ms    float64
	PtailMs  float64
	PtailPct float64
}

func summariseLatency(samples []sample) latencyStats {
	n := len(samples)
	if n == 0 {
		return latencyStats{}
	}
	ms := make([]float64, n)
	for i, s := range samples {
		ms[i] = float64(s.lat) / 1e6
	}
	sort.Float64s(ms)
	st := latencyStats{N: n, P50Ms: ms[(n-1)/2]}
	if n > 10 {
		st.PtailMs = ms[n-11]
		st.PtailPct = 100 * float64(n-10) / float64(n)
	} else {
		st.PtailMs = ms[n-1]
		st.PtailPct = 100
	}
	return st
}

// steadyRate is the run's throughput in ops/s, made robust to a stalled
// fsync or a GC cycle: completions are cut, in completion order, into up
// to 20 chunks of equal op count, each chunk's rate is its ops over the
// timed-clock time it spanned, and the median chunk rate is reported. With
// too few ops to chunk it is simply ops over timed time.
func steadyRate(samples []sample) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	ends := make([]int64, n)
	for i, s := range samples {
		ends[i] = s.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	chunks := n / 10
	if chunks > 20 {
		chunks = 20
	}
	if chunks < 2 {
		if ends[n-1] <= 0 {
			return 0
		}
		return float64(n) / (float64(ends[n-1]) / 1e9)
	}
	rates := make([]float64, 0, chunks)
	prevEnd, prevIdx := int64(0), 0
	for c := 1; c <= chunks; c++ {
		idx := c * n / chunks
		end := ends[idx-1]
		if d := end - prevEnd; d > 0 {
			rates = append(rates, float64(idx-prevIdx)/(float64(d)/1e9))
		}
		prevEnd, prevIdx = end, idx
	}
	return median(rates)
}
