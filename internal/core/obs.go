package core

import "aire/internal/obs"

// ctrlMetrics caches the controller's observability handles, resolved once
// at NewController (handle resolution takes the registry mutex; updates are
// lock-free). With no registry configured (Config.Obs nil) every handle is
// nil, reg/ring are nil, and each instrumented site degenerates to a nil
// check with zero allocations — the property BenchmarkObsOverhead and
// TestObsDisabledZeroAlloc assert.
//
// Metric names are prefixed "core.<service>." so a harness sharing one
// registry across a mesh keeps per-service series.
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

	vvGapNacks     *obs.Counter // receive-side gap detections NACKed to the sender
	vvReoffers     *obs.Counter // sender re-offer activations from peer NACKs
	vvCompacted    *obs.Counter // dedup-inbox entries released by acked-prefix compaction
	corruptRejects *obs.Counter // carriers refused on body-checksum mismatch

	queueDepth *obs.Gauge // live outgoing-queue entries

	deliverNS *obs.Histogram // one delivery attempt, wire call end to end
	repairNS  *obs.Histogram // one local repair pass (warp)
}

// newCtrlMetrics resolves every handle against reg (all-nil when reg is
// nil — *obs.Registry methods are nil-safe and return nil handles).
func newCtrlMetrics(reg *obs.Registry, svc string) ctrlMetrics {
	p := "core." + svc + "."
	return ctrlMetrics{
		reg:  reg,
		ring: reg.Ring(),

		requests:      reg.Counter(p + "requests"),
		repairsRun:    reg.Counter(p + "repairs_run"),
		msgsQueued:    reg.Counter(p + "msgs_queued"),
		msgsDelivered: reg.Counter(p + "msgs_delivered"),
		msgsFailed:    reg.Counter(p + "msgs_failed"),
		inboxApply:    reg.Counter(p + "inbox_apply"),
		inboxDup:      reg.Counter(p + "inbox_duplicate"),
		inboxStale:    reg.Counter(p + "inbox_stale"),
		inboxBusy:     reg.Counter(p + "inbox_in_flight"),
		inboxGone:     reg.Counter(p + "inbox_forgotten"),
		inboxCommits:  reg.Counter(p + "inbox_commits"),

		vvGapNacks:     reg.Counter(p + "vv_gap_nacks"),
		vvReoffers:     reg.Counter(p + "vv_reoffers"),
		vvCompacted:    reg.Counter(p + "vv_compacted"),
		corruptRejects: reg.Counter(p + "corrupt_rejects"),

		queueDepth: reg.Gauge(p + "queue_depth"),

		deliverNS: reg.Histogram(p + "deliver_ns"),
		repairNS:  reg.Histogram(p + "repair_ns"),
	}
}
