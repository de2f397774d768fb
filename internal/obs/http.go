package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promName rewrites a registry metric name ("core.hub.queue_depth")
// into the Prometheus exposition charset (dots and dashes become
// underscores).
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (v0.0.4), deterministically sorted. Histograms export
// cumulative le buckets in seconds plus _sum and _count.
func (s Snapshot) WriteProm(w io.Writer) {
	for _, k := range sortedKeys(s.Counters) {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		n := promName(k)
		h := s.Histograms[k]
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		var cum int64
		for i, c := range h.Buckets {
			cum += c
			// Bucket i upper bound is 2^i microseconds.
			le := float64(int64(1)<<i) * 1e-6
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, fmt.Sprintf("%g", le), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %g\n", n, float64(h.SumNS)*1e-9)
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}

// Handler serves the registry in Prometheus text format (the
// /aire/debug/metrics surface). Nil-safe: a nil registry serves an
// empty exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Snapshot().WriteProm(w)
	})
}

// WavesDump is the JSON document served by /aire/debug/waves.
type WavesDump struct {
	// TotalSpans counts spans ever recorded (ring may have dropped some).
	TotalSpans int64 `json:"total_spans"`
	// Buffered is how many spans the ring currently holds.
	Buffered int        `json:"buffered"`
	Waves    []WaveStat `json:"waves"`
	// Spans is the raw buffer, oldest first (omitted when verbose=0).
	Spans []Span `json:"spans,omitempty"`
}

// Dump assembles the waves document from the registry's ring. Nil-safe.
func (r *Registry) Dump(verbose bool) WavesDump {
	spans := r.Ring().Spans()
	d := WavesDump{
		TotalSpans: r.Ring().Total(),
		Buffered:   len(spans),
		Waves:      Waves(spans),
	}
	if verbose {
		d.Spans = spans
	}
	return d
}

// WavesHandler serves reconstructed wave stats as JSON (the
// /aire/debug/waves surface); ?verbose=1 includes raw spans. Nil-safe.
func (r *Registry) WavesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Dump(req.URL.Query().Get("verbose") == "1"))
	})
}
