package core

import (
	"encoding/json"
	"fmt"
	"sync"

	"aire/internal/deliver"
	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/wal"
)

// This file wires the controller to the write-ahead log (internal/wal).
//
// Commit batching: mutations made while the service lock (Svc.Mu) is held —
// request execution, local repair (an incoming frame's included), a
// delivered frame's reconcile, GC — are buffered between walBegin and
// walCommit and land as ONE framed WAL entry, so replay applies the whole
// commit or none of it (this is what makes a half-applied frame impossible
// after recovery). Mutations outside the service lock — Retry, Drop and
// standalone enqueues under qmu — are appended as standalone single-op
// entries at the moment they happen, inside the same critical section that
// performs them, so WAL order matches mutation order per domain.

// walState is the controller's WAL attachment. mu guards every field; it is
// a leaf lock (nothing is acquired while holding it).
type walState struct {
	mu  sync.Mutex
	w   *wal.Writer
	err error // first append failure, sticky

	batchOpen bool
	batchKind string
	batch     []wal.Op

	// pendingSync is the highest batch-commit seq still owing an fsync
	// (high-water mark; never reset — wal.SyncTo is a no-op once the seq is
	// durable). walCommit raises it under Svc.Mu; walSettle flushes it
	// after the lock is released.
	pendingSync uint64
}

// AttachWAL starts mirroring every committed mutation into w. Attach after
// recovery and before serving traffic.
func (c *Controller) AttachWAL(w *wal.Writer) {
	c.walst.mu.Lock()
	c.walst.w = w
	c.walst.pendingSync = 0 // seqs are writer-relative; drop any stale mark
	c.walst.mu.Unlock()
	c.Svc.Store.SetChangeSink(c.walVDBSink)
	c.Svc.Log.SetChangeSink(c.walLogSink)
}

// DetachWAL stops mirroring and returns the writer (nil if none attached).
func (c *Controller) DetachWAL() *wal.Writer {
	c.Svc.Store.SetChangeSink(nil)
	c.Svc.Log.SetChangeSink(nil)
	c.walst.mu.Lock()
	w := c.walst.w
	c.walst.w = nil
	c.walst.mu.Unlock()
	return w
}

// WALError returns the first WAL append error, if any (sticky).
func (c *Controller) WALError() error {
	c.walst.mu.Lock()
	defer c.walst.mu.Unlock()
	return c.walst.err
}

// walAttached reports whether a writer is attached (cheap pre-check so
// detached controllers skip op marshaling entirely).
func (c *Controller) walAttached() bool {
	c.walst.mu.Lock()
	defer c.walst.mu.Unlock()
	return c.walst.w != nil
}

// walBegin opens a commit batch. Caller holds Svc.Mu; batches never nest.
func (c *Controller) walBegin(kind string) {
	c.walst.mu.Lock()
	defer c.walst.mu.Unlock()
	if c.walst.w == nil {
		return
	}
	c.walst.batchOpen = true
	c.walst.batchKind = kind
	c.walst.batch = c.walst.batch[:0]
}

// walCommit closes the batch and appends it as one entry. Caller still
// holds Svc.Mu. Empty batches append nothing. The entry is written but NOT
// flushed here: the fsync the policy may owe is deferred to walSettle, which
// the commit path runs after releasing Svc.Mu — so a disk flush never
// serializes request execution, and concurrent commits share one group
// fsync instead of queueing a flush each behind the service lock.
func (c *Controller) walCommit() {
	c.walst.mu.Lock()
	if !c.walst.batchOpen {
		c.walst.mu.Unlock()
		return
	}
	c.walst.batchOpen = false
	kind := c.walst.batchKind
	ops := append([]wal.Op(nil), c.walst.batch...)
	c.walst.batch = c.walst.batch[:0]
	w := c.walst.w
	c.walst.mu.Unlock()
	if w == nil || len(ops) == 0 {
		return
	}
	seq, syncNeeded, err := w.AppendDeferred(kind, c.Svc.Clock.Now(), c.Svc.IDs.Counter(), ops)
	c.walst.mu.Lock()
	if err != nil {
		if c.walst.err == nil {
			c.walst.err = err
		}
	} else if syncNeeded && seq > c.walst.pendingSync {
		c.walst.pendingSync = seq
	}
	c.walst.mu.Unlock()
}

// walSettle makes the caller's last walCommit durable; run it after
// releasing Svc.Mu and before replying to the client. pendingSync is a
// high-water mark, so a settle whose commit another settle's fsync already
// covered returns without touching the disk (wal.Writer.SyncTo blocks until
// the covering flush has actually completed — a commit is never
// acknowledged on the strength of an fsync still in flight).
func (c *Controller) walSettle() {
	c.walst.mu.Lock()
	w := c.walst.w
	seq := c.walst.pendingSync
	c.walst.mu.Unlock()
	if w == nil || seq == 0 {
		return
	}
	if err := w.SyncTo(seq); err != nil {
		c.walst.mu.Lock()
		if c.walst.err == nil {
			c.walst.err = err
		}
		c.walst.mu.Unlock()
	}
}

// walEmit routes one op: into the open commit batch when join is set (the
// caller is a Svc.Mu-held mutation path), else as a standalone entry under
// the given kind.
func (c *Controller) walEmit(kind string, op wal.Op, join bool) {
	if join {
		c.walst.mu.Lock()
		if c.walst.batchOpen {
			c.walst.batch = append(c.walst.batch, op)
			c.walst.mu.Unlock()
			return
		}
		c.walst.mu.Unlock()
	}
	c.walAppend(kind, []wal.Op{op})
}

// walAppend writes one entry, stamping the logical clock and ID counter so
// recovery can restore both even when the snapshot predates them.
func (c *Controller) walAppend(kind string, ops []wal.Op) {
	c.walst.mu.Lock()
	w := c.walst.w
	c.walst.mu.Unlock()
	if w == nil || len(ops) == 0 {
		return
	}
	if _, err := w.Append(kind, c.Svc.Clock.Now(), c.Svc.IDs.Counter(), ops); err != nil {
		c.walst.mu.Lock()
		if c.walst.err == nil {
			c.walst.err = err
		}
		c.walst.mu.Unlock()
	}
}

func mustOp(kind string, v any) wal.Op {
	data, err := json.Marshal(v)
	if err != nil {
		// The op payload types below are all plain data; a marshal failure
		// is a programming error.
		panic(fmt.Sprintf("core: wal op %s marshal: %v", kind, err))
	}
	return wal.Op{Kind: kind, Data: data}
}

// walVDBSink observes store mutations. It fires under the store lock, on
// paths that hold Svc.Mu, so joining the open batch is race-free.
func (c *Controller) walVDBSink(ch vdb.Change) {
	c.walEmit("vdb", mustOp("vdb", ch), true)
}

// walLogSink observes repair-log mutations; same locking shape as the
// store sink.
func (c *Controller) walLogSink(ch repairlog.Change) {
	c.walEmit("log", mustOp("log", ch), true)
}

// ---- op payloads ----------------------------------------------------------

type qSetOp struct {
	Msg    PendingMsg `json:"msg"`
	NextID int        `json:"next_id"`
}

type qDelOp struct {
	MsgID string `json:"msg_id"`
}

type inboxOp struct {
	Origin  string `json:"origin"`
	ID      string `json:"id"`
	Gen     uint64 `json:"gen,omitempty"`
	Once    bool   `json:"once,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	TS      int64  `json:"ts,omitempty"`
}

type inGCOp struct {
	BeforeTS int64 `json:"before_ts"`
}

// inVVOp records a receive-side version-vector advance (vectors.go): the
// announced acked prefix drives dedup-inbox compaction, so the advance and
// the compaction must be replayed together — one idempotent op does both
// (ObserveVector is a monotonic max), keeping recovery consistent with
// whatever the checkpoint snapshot already contains. Sender-side vectors
// need no op: they are derived from the replayed queue (see vectors.go).
type inVVOp struct {
	Origin   string `json:"origin"`
	Acked    uint64 `json:"acked"`
	Frontier uint64 `json:"frontier,omitempty"`
}

// walEmitQSetLocked logs a queue entry's current state. Caller holds qmu.
func (c *Controller) walEmitQSetLocked(p *PendingMsg) {
	c.walEmitQSetJoinLocked(p, false)
}

// walEmitQSetJoinLocked is walEmitQSetLocked with control over batching:
// join=true folds the op into the caller's open WAL batch (the caller must
// hold Svc.Mu with a batch open — see enqueueJoin). Caller holds qmu.
func (c *Controller) walEmitQSetJoinLocked(p *PendingMsg, join bool) {
	if !c.walAttached() {
		return
	}
	c.walEmit("queue", mustOp("q-set", qSetOp{Msg: *p, NextID: c.nextID}), join)
}

// walEmitQDelLocked logs a queue entry's removal, folded into the caller's
// open WAL batch when join is set (see walEmitQSetJoinLocked). Caller holds
// qmu.
func (c *Controller) walEmitQDelLocked(msgID string, join bool) {
	if !c.walAttached() {
		return
	}
	c.walEmit("queue", mustOp("q-del", qDelOp{MsgID: msgID}), join)
}

// ---- recovery -------------------------------------------------------------

// ApplyWALEntry replays one recovered WAL entry onto the controller. Ops
// are idempotent: recovery may replay entries whose effects the checkpoint
// snapshot already contains.
func (c *Controller) ApplyWALEntry(e wal.Entry) error {
	for i, op := range e.Ops {
		if err := c.applyWALOp(op); err != nil {
			return fmt.Errorf("core: wal entry %d (%s) op %d (%s): %w", e.Seq, e.Kind, i, op.Kind, err)
		}
	}
	c.Svc.Clock.Observe(e.Clock)
	if e.IDs > c.Svc.IDs.Counter() {
		c.Svc.IDs.SetCounter(e.IDs)
	}
	return nil
}

func (c *Controller) applyWALOp(op wal.Op) error {
	switch op.Kind {
	case "vdb":
		var ch vdb.Change
		if err := json.Unmarshal(op.Data, &ch); err != nil {
			return err
		}
		return c.Svc.Store.ApplyChange(ch)
	case "log":
		var ch repairlog.Change
		if err := json.Unmarshal(op.Data, &ch); err != nil {
			return err
		}
		switch ch.Kind {
		case "append", "update":
			return c.Svc.Log.ApplyWAL(ch.Record)
		case "gc":
			c.Svc.Log.ApplyWALGC(ch.BeforeTS)
			return nil
		}
		return fmt.Errorf("unknown log change kind %q", ch.Kind)
	case "q-set":
		var o qSetOp
		if err := json.Unmarshal(op.Data, &o); err != nil {
			return err
		}
		c.walQueueSet(o)
		return nil
	case "q-del":
		var o qDelOp
		if err := json.Unmarshal(op.Data, &o); err != nil {
			return err
		}
		c.walQueueRemove(o.MsgID)
		return nil
	case "q-claim", "in-rollback":
		// Carry no state: a claim is an in-memory lease, and an inbox
		// reservation is never logged, so neither is its release. WALs
		// written before these ops were retired still replay.
		return nil
	case "in-commit":
		var o inboxOp
		if err := json.Unmarshal(op.Data, &o); err != nil {
			return err
		}
		switch d, _ := c.dedup.Begin(o.Origin, o.ID, o.Gen, o.Once); d {
		case deliver.Apply, deliver.InFlight:
			// InFlight means the checkpoint snapshot (or an earlier replayed
			// op) already holds the reservation; Commit only needs the entry
			// and a matching generation.
			c.dedup.Commit(o.Origin, o.ID, o.Gen, o.Outcome, o.TS)
		}
		return nil
	case "in-gc":
		var o inGCOp
		if err := json.Unmarshal(op.Data, &o); err != nil {
			return err
		}
		c.dedup.GC(o.BeforeTS)
		return nil
	case "in-vv":
		var o inVVOp
		if err := json.Unmarshal(op.Data, &o); err != nil {
			return err
		}
		c.dedup.ObserveVector(o.Origin, o.Acked, o.Frontier, 0, 0)
		return nil
	}
	return fmt.Errorf("unknown wal op kind %q", op.Kind)
}

// walQueueSet upserts a replayed queue entry by message ID.
func (c *Controller) walQueueSet(o qSetOp) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if o.NextID > c.nextID {
		c.nextID = o.NextID
	}
	for _, p := range c.queue {
		if p.queued && p.MsgID == o.Msg.MsgID {
			m := o.Msg
			p.Msg = m.Msg
			p.DeliveryID = m.DeliveryID
			p.Attempts = m.Attempts
			p.Held = m.Held
			p.LastErr = m.LastErr
			p.Gen = m.Gen
			p.TraceID = m.TraceID
			p.TraceHop = m.TraceHop
			return
		}
	}
	p := o.Msg
	p.inflight = false
	p.queued = true
	c.queue = append(c.queue, &p)
	c.qlive++
	// Sender vectors mirror the queue; replaying the queue replays them
	// (vvIssueLocked is idempotent against checkpoint-overlap re-inserts).
	c.vvIssueLocked(c.peerDest(p.Msg), p.DeliveryID)
}

// walQueueRemove deletes a replayed queue entry by message ID.
func (c *Controller) walQueueRemove(msgID string) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for i, p := range c.queue {
		if p.queued && p.MsgID == msgID {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			p.queued = false
			c.queueShrunkLocked()
			c.vvResolveLocked(c.peerDest(p.Msg), p.DeliveryID)
			return
		}
	}
}

// ---- atomic export (persist.Capture's backing store) ----------------------

// AtomicExport is a consistent cut of every durable controller domain,
// captured under all the relevant locks at once.
type AtomicExport struct {
	ClockNow  int64
	IDCounter int64
	GCBefore  int64
	Records   []*repairlog.Record
	Objects   []vdb.ObjectDump
	Queue     []PendingMsg
	Inbox     []deliver.OriginDump
}

// ExportAtomic captures the repair log, store, outgoing queue, and dedup
// inbox in ONE critical section (Svc.Mu, then qmu — the established
// acquisition order). Unlike capturing each
// domain separately, a pump delivery cannot reconcile a message away
// between the log capture and the queue capture, so the cut is consistent:
// this is what persist.Capture builds its snapshot from.
func (c *Controller) ExportAtomic() AtomicExport {
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	c.qmu.Lock()
	defer c.qmu.Unlock()

	ex := AtomicExport{
		ClockNow:  c.Svc.Clock.Now(),
		IDCounter: c.Svc.IDs.Counter(),
		GCBefore:  c.Svc.Log.GCBefore(),
		Inbox:     c.dedup.Dump(),
	}
	for _, r := range c.Svc.Log.All() {
		ex.Records = append(ex.Records, r.Clone())
	}
	ex.Objects = c.Svc.Store.Dump()
	ex.Queue = make([]PendingMsg, 0, c.qlive)
	for _, p := range c.queue {
		if p.queued {
			ex.Queue = append(ex.Queue, *p)
		}
	}
	return ex
}
