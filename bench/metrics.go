package main

import (
	"strings"
)

// metricDef names one metric. The end-to-end list, with its bounds, and
// the per-layer list are mirrored in BENCHMARK.json at the repository
// root; bench_test.go fails if the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, the same on every workload. The fifth
// end-to-end number, fail_ratio (failed ÷ attempted, bound: 0, absolute),
// is gated through the result's "failed" and "correct" fields instead of
// this list, because a metric in this list may never read 0.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_op", "bytes/op", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced pass's numbers; none is gated.
var perLayer = []metricDef{
	{Name: "transport.hop_us", Unit: "us", Better: "lower"},
	{Name: "transport.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.probe_hop_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "bytes/op", Better: "lower"},
	{Name: "wal.probe_append_sync_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us.hub", Unit: "us", Better: "lower"},
	{Name: "core.self_us.peer", Unit: "us", Better: "lower"},
	{Name: "bare.self_us", Unit: "us", Better: "lower"},
	{Name: "vdb.put_ns", Unit: "ns", Better: "lower"},
	{Name: "vdb.get_ns", Unit: "ns", Better: "lower"},
	{Name: "vdb.scan_ns", Unit: "ns", Better: "lower"},
	{Name: "vdb.bytes_per_op", Unit: "bytes/op", Better: "lower"},
	{Name: "repairlog.append_ns.1dep", Unit: "ns", Better: "lower"},
	{Name: "repairlog.append_ns.500dep", Unit: "ns", Better: "lower"},
	{Name: "repairlog.bytes_per_op", Unit: "bytes/op", Better: "lower"},
	{Name: "index_bytes", Unit: "bytes", Better: "lower"},
	{Name: "warp.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "warp.reexec_per_wave", Unit: "count", Better: "lower"},
	{Name: "pump.sojourn_ms", Unit: "ms", Better: "lower"},
	{Name: "pump.carriers_per_wave", Unit: "count", Better: "lower"},
	{Name: "pump.http_calls_per_carrier", Unit: "count", Better: "lower"},
	{Name: "deliver.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "deliver.wasted_per_op", Unit: "count", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

// endToEndOf turns a run into the gated metrics plus the ungated numbers
// reported beside them.
func endToEndOf(r *runResult) (gated, ungated map[string]float64) {
	ops := float64(len(r.samples))
	lat := summariseLatency(r.samples)
	gated = map[string]float64{
		"ops_per_s": steadyRate(r.samples),
		"p50_ms":    lat.P50Ms,
		"setup_s":   median(r.setupS),
	}
	ungated = map[string]float64{
		"fail_ratio": float64(r.failed) / float64(max(r.attempted, 1)),
		"n":          ops,
		"ptail_ms":   lat.PtailMs,
		"ptail_pct":  lat.PtailPct,
	}
	if ops > 0 {
		gated["stored_bytes_per_op"] = float64(r.stored.total()) / ops
		ungated["alloc_bytes_per_op"] = float64(r.allocBytes) / ops
		ungated["allocs_per_op"] = float64(r.allocs) / ops
	}
	if len(r.bare) > 0 {
		ungated["bare_ops_per_s"] = steadyRate(r.bare)
	}
	return gated, ungated
}

// layersOf derives the per-layer metrics of a traced run from its spans
// and from the counters the system keeps. entry is the service the
// benchmark's client talks to (role "hub"); every other service is a peer.
// Per-op numbers are sums over the op's spans divided by ops, because the
// op waits for them one after another.
func layersOf(r *runResult, spans []span, entry string) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	ops := float64(r.attempted)
	if ops == 0 {
		return m
	}
	self := selfTimes(spans)

	var calls, hopNS, appends, appendNS, fsyncs, fsyncNS float64
	var hubNS, peerNS, bareNS, pumpCalls float64
	repairCallEnd := map[int64]int64{} // op → end of the client's repair call
	lastDelivery := map[int64]int64{}  // op → last end of a peer's /aire/* handling
	for _, s := range spans {
		switch s.Layer {
		case layerTransport:
			calls++
			hopNS += float64(self[s.ID])
			if isRepairPlane(strings.TrimPrefix(s.Name, "call ")) {
				if s.Svc == clientName {
					repairCallEnd[s.Op] = s.End
				} else {
					pumpCalls++
				}
			}
		case layerWAL:
			if s.Name == "append" {
				appends++
				appendNS += float64(s.dur())
			} else {
				fsyncs++
				fsyncNS += float64(s.dur())
			}
		case layerCore:
			if s.Svc == entry {
				hubNS += float64(self[s.ID])
			} else {
				peerNS += float64(self[s.ID])
				if isRepairPlane(strings.TrimPrefix(s.Name, "handle ")) && s.End > lastDelivery[s.Op] {
					lastDelivery[s.Op] = s.End
				}
			}
		case layerBare:
			bareNS += float64(self[s.ID])
		}
	}
	if calls > 0 {
		m["transport.hop_us"] = hopNS / calls / 1e3
	}
	m["transport.calls_per_op"] = calls / ops
	if appends > 0 {
		m["wal.append_us"] = appendNS / appends / 1e3
	}
	if fsyncs > 0 {
		m["wal.fsync_us"] = fsyncNS / fsyncs / 1e3
	}
	m["wal.fsyncs_per_op"] = fsyncs / ops
	m["wal.bytes_per_op"] = float64(r.stored.walBytes) / ops
	for svc, ns := range walInsideHandlers(spans) {
		if svc == entry {
			hubNS -= float64(ns)
		} else {
			peerNS -= float64(ns)
		}
	}
	m["core.self_us.hub"] = hubNS / ops / 1e3
	m["core.self_us.peer"] = peerNS / ops / 1e3
	m["bare.self_us"] = bareNS / ops / 1e3
	m["vdb.bytes_per_op"] = float64(r.stored.dbBytes) / ops
	m["repairlog.bytes_per_op"] = float64(r.stored.logBytes) / ops
	m["index_bytes"] = float64(r.indexBytes)
	m["warp.repair_ms"] = float64(r.repairNS) / ops / 1e6
	m["warp.reexec_per_wave"] = float64(r.reexecuted) / ops
	var sojournNS, sojourns float64
	for op, callEnd := range repairCallEnd {
		if last, ok := lastDelivery[op]; ok {
			sojournNS += float64(last - callEnd)
			sojourns++
		}
	}
	if sojourns > 0 {
		m["pump.sojourn_ms"] = sojournNS / sojourns / 1e6
	}
	m["pump.carriers_per_wave"] = float64(r.msgsQueued) / ops
	if r.msgsDelivered > 0 {
		m["pump.http_calls_per_carrier"] = pumpCalls / float64(r.msgsDelivered)
	}
	if pumpCalls > 0 {
		m["deliver.useful_ratio"] = float64(r.msgsDelivered) / pumpCalls
	}
	m["deliver.wasted_per_op"] = float64(r.dupOrStale) / ops
	return m
}
