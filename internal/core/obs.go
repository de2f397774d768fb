package core

import "aire/internal/obs"

// ctrlMetrics holds the controller's metric handles, resolved once at
// NewController (handle resolution takes the registry mutex; updates are
// lock-free). They are the controller's only copy of each count: Stats,
// RepairCounts and RepairDuration read them, and with a registry configured
// (Config.Obs) they are the registry's series, so the benchmark and
// /aire/debug/metrics read the same numbers. With no registry every handle
// is detached — counting, but exported nowhere — and reg/ring are nil, so
// no span is recorded and no clock is read for a latency; the instrumented
// sites stay at 0 allocs/op, the property BenchmarkObsOverhead and
// TestObsDisabledZeroAlloc assert.
//
// Metric names are prefixed "core.<service>." so a harness sharing one
// registry across a mesh keeps per-service series, and an incarnation
// recovered onto the same registry continues its predecessor's counts.
type ctrlMetrics struct {
	// reg gates span recording and the clock reads that feed latency
	// histograms; ring is reg's span buffer. Both nil when disabled.
	reg  *obs.Registry
	ring *obs.Ring

	requests      *obs.Counter // live requests executed
	repairsRun    *obs.Counter // local repair passes completed
	msgsQueued    *obs.Counter // repair messages entering the outgoing queue
	msgsDelivered *obs.Counter // fresh deliveries acknowledged by the peer
	msgsFailed    *obs.Counter // terminal delivery failures (gone)
	inboxApply    *obs.Counter // inbox verdicts, by class
	inboxDup      *obs.Counter
	inboxStale    *obs.Counter
	inboxBusy     *obs.Counter
	inboxGone     *obs.Counter
	inboxCommits  *obs.Counter // exactly-once outcomes committed
	repairsDenied *obs.Counter // incoming repairs the application's Authorize refused

	repairedReqs *obs.Counter // requests re-executed by local repair (Table 5)
	repairedOps  *obs.Counter // model operations re-executed by local repair

	vvGapNacks     *obs.Counter // receive-side gap detections NACKed to the sender
	vvReoffers     *obs.Counter // sender re-offer activations from peer NACKs
	vvCompacted    *obs.Counter // dedup-inbox entries released by acked-prefix compaction
	corruptRejects *obs.Counter // carriers refused on body-checksum mismatch

	queueVisits *obs.Counter // outgoing-queue entries scans and index lookups touched

	queueDepth    *obs.Gauge // live outgoing-queue entries
	lastTotalReqs *obs.Gauge // repair log size seen by the latest local repair
	lastTotalOps  *obs.Gauge // model operations seen by the latest local repair

	deliverNS *obs.Histogram // one delivery attempt, wire call end to end
	repairNS  *obs.Histogram // one local repair pass (warp); its sum is RepairDuration
}

// newCtrlMetrics resolves every handle against reg, or builds detached
// handles when reg is nil.
func newCtrlMetrics(reg *obs.Registry, svc string) ctrlMetrics {
	p := "core." + svc + "."
	counter := func(name string) *obs.Counter {
		if reg == nil {
			return new(obs.Counter)
		}
		return reg.Counter(p + name)
	}
	gauge := func(name string) *obs.Gauge {
		if reg == nil {
			return new(obs.Gauge)
		}
		return reg.Gauge(p + name)
	}
	histogram := func(name string) *obs.Histogram {
		if reg == nil {
			return new(obs.Histogram)
		}
		return reg.Histogram(p + name)
	}
	return ctrlMetrics{
		reg:  reg,
		ring: reg.Ring(),

		requests:      counter("requests"),
		repairsRun:    counter("repairs_run"),
		msgsQueued:    counter("msgs_queued"),
		msgsDelivered: counter("msgs_delivered"),
		msgsFailed:    counter("msgs_failed"),
		inboxApply:    counter("inbox_apply"),
		inboxDup:      counter("inbox_duplicate"),
		inboxStale:    counter("inbox_stale"),
		inboxBusy:     counter("inbox_in_flight"),
		inboxGone:     counter("inbox_forgotten"),
		inboxCommits:  counter("inbox_commits"),
		repairsDenied: counter("repairs_denied"),

		repairedReqs: counter("repaired_requests"),
		repairedOps:  counter("repaired_ops"),

		vvGapNacks:     counter("vv_gap_nacks"),
		vvReoffers:     counter("vv_reoffers"),
		vvCompacted:    counter("vv_compacted"),
		corruptRejects: counter("corrupt_rejects"),

		queueVisits: counter("queue_visits"),

		queueDepth:    gauge("queue_depth"),
		lastTotalReqs: gauge("last_total_requests"),
		lastTotalOps:  gauge("last_total_ops"),

		deliverNS: histogram("deliver_ns"),
		repairNS:  histogram("repair_ns"),
	}
}
