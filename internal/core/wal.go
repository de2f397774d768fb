package core

import (
	"cmp"
	"fmt"
	"sync"

	"aire/internal/deliver"
	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/wal"
)

// This file wires the controller to the write-ahead log (internal/wal).
//
// One commit path: every entry the controller writes is one Svc.Mu critical
// section, and commit is the only place a batch opens. Request execution,
// local repair (an incoming frame's included), a frame's reconcile, Retry,
// Drop and GC hand their mutations to commit, which takes Svc.Mu, opens a
// batch (walBegin), runs them (queue ops under q.mu, which nests inside
// Svc.Mu), and writes the batch (walCommit) before it releases Svc.Mu; the
// fsync (walSettle) runs after. Replay therefore applies each critical
// section whole or not at all, in the order they held Svc.Mu. walCommit is
// the one place an op meets its WAL sequence.

// walState is the controller's WAL attachment. mu guards every field; it is
// a leaf lock (nothing is acquired while holding it).
type walState struct {
	mu  sync.Mutex
	w   *wal.Writer
	err error // first append failure, sticky

	batchOpen bool
	batchKind string
	batch     []wal.Op
	// buf holds the open batch's encoded op data; batch's ops alias it.
	// walBegin reuses both: walCommit writes the entry before Svc.Mu is
	// released, so no later batch opens while it is being written.
	buf []byte

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
// detached controllers skip building ops entirely).
func (c *Controller) walAttached() bool {
	c.walst.mu.Lock()
	defer c.walst.mu.Unlock()
	return c.walst.w != nil
}

// commit runs fn as one WAL entry: Svc.Mu, walBegin, fn, walCommit, unlock,
// then walSettle outside every lock, still before the caller replies. The
// order is deferred, so a panicking handler never leaves Svc.Mu held.
func (c *Controller) commit(kind string, fn func()) {
	defer c.walSettle()
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	c.walBegin(kind)
	defer c.walCommit()
	fn()
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
	if cap(c.walst.buf) > maxKeptBatchBytes {
		c.walst.buf = nil // a wave's batch is not kept for every later commit
	}
	c.walst.buf = c.walst.buf[:0]
}

// maxKeptBatchBytes bounds the batch buffer walBegin reuses.
const maxKeptBatchBytes = 64 << 10

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
	kind, ops, w := c.walst.batchKind, c.walst.batch, c.walst.w
	c.walst.mu.Unlock()
	if w == nil || len(ops) == 0 {
		return
	}
	// ops and the buffer they alias stay untouched until the next
	// walBegin, which waits for Svc.Mu.
	seq, syncNeeded, err := w.AppendDeferred(kind, c.Svc.Clock.Now(), c.Svc.IDs.Counter(), ops)
	c.walst.mu.Lock()
	if err != nil {
		c.walst.err = cmp.Or(c.walst.err, err)
	} else if syncNeeded && seq > c.walst.pendingSync {
		c.walst.pendingSync = seq
	}
	c.walst.mu.Unlock()
}

// walSettle makes the caller's last walCommit durable; commit runs it after
// releasing Svc.Mu and before the caller replies. pendingSync is a
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
		c.walst.err = cmp.Or(c.walst.err, err) // sticky: the first failure
		c.walst.mu.Unlock()
	}
}

// walEmit encodes one op into the open commit batch. A detached
// controller emits nothing. With a writer attached, an op emitted outside a
// batch is a programming error — it would be written out of Svc.Mu order
// or lost — and panics.
func (c *Controller) walEmit(op *walOp) {
	c.walst.mu.Lock()
	defer c.walst.mu.Unlock()
	if c.walst.w == nil {
		return
	}
	if !c.walst.batchOpen {
		panic("core: wal op " + op.Kind + " emitted with no commit batch open")
	}
	start := len(c.walst.buf)
	c.walst.buf = op.append(c.walst.buf)
	end := len(c.walst.buf)
	// The three-index slice keeps a later op's append from writing into
	// this op's data; a buffer that grows leaves earlier ops on the old
	// array, which nothing writes to again.
	c.walst.batch = append(c.walst.batch, wal.Op{Kind: op.Kind, Data: c.walst.buf[start:end:end]})
}

// walVDBSink observes store mutations. It fires under the store lock, on
// paths that hold Svc.Mu with a batch open.
func (c *Controller) walVDBSink(ch vdb.Change) {
	c.walEmit(&walOp{Kind: "vdb", VDB: ch})
}

// walLogSink observes repair-log mutations; same locking shape as the
// store sink. The change's record is the log's live record, borrowed for
// this call only: walEmit encodes it before the sink returns.
func (c *Controller) walLogSink(ch repairlog.Change) {
	c.walEmit(&walOp{Kind: "log", Log: ch})
}

// walEmitQSetLocked logs a queue entry's current state into the open
// batch. Caller holds Svc.Mu with a batch open, and q.mu.
func (c *Controller) walEmitQSetLocked(p *PendingMsg) {
	if c.walAttached() {
		c.walEmit(&walOp{Kind: "q-set", QSet: *p})
	}
}

// ---- recovery -------------------------------------------------------------

// ApplyWALEntry replays one recovered WAL entry onto the controller. Ops
// are idempotent: recovery may replay entries whose effects the checkpoint
// snapshot already contains. The entry's ID counter is raised first. Only
// version 2 is replayed: an older entry is refused before it changes
// anything, and persist.Load upgrades it (UpgradeV1Entry) on its way here.
func (c *Controller) ApplyWALEntry(e wal.Entry) error {
	if e.Format != wal.FormatBinary {
		return fmt.Errorf("core: wal entry %d (%s) is format %d; replay reads only format %d", e.Seq, e.Kind, e.Format, wal.FormatBinary)
	}
	if e.IDs > c.Svc.IDs.Counter() {
		c.Svc.IDs.SetCounter(e.IDs)
	}
	err := readEntryOps(e, func(i int, op *walOp) error {
		if err := c.applyWALOp(op); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: wal entry %d (%s): %w", e.Seq, e.Kind, err)
	}
	c.Svc.Clock.Observe(e.Clock)
	return nil
}

func (c *Controller) applyWALOp(op *walOp) error {
	switch op.Kind {
	case "vdb":
		return c.Svc.Store.ApplyChange(op.VDB)
	case "log":
		ch := op.Log
		switch ch.Kind {
		case "append", "update":
			return c.Svc.Log.ApplyWAL(ch.Record)
		case "gc":
			c.Svc.Log.ApplyWALGC(ch.BeforeTS)
			return nil
		}
		return fmt.Errorf("unknown log change kind %q", ch.Kind)
	case "q-set":
		if err := c.restorable(op.QSet, c.Svc.IDs.Counter()); err != nil {
			return err
		}
		c.q.mu.Lock()
		c.q.upsert(op.QSet)
		c.q.mu.Unlock()
		return nil
	case "q-del":
		if op.QDel == "" {
			return fmt.Errorf("q-del names no message")
		}
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
		if p := c.q.find(op.QDel); p != nil {
			c.dequeueLocked(p)
		}
		return nil
	case "in-commit":
		o := op.Inbox
		switch d, _ := c.dedup.Begin(o.Origin, o.ID, o.Gen, o.Once); d {
		case deliver.Apply, deliver.InFlight:
			// InFlight means the checkpoint snapshot (or an earlier replayed
			// op) already holds the reservation; Commit only needs the entry
			// and a matching generation.
			c.dedup.Commit(o.Origin, o.ID, o.Gen, o.Outcome, o.TS)
		}
		return nil
	case "in-gc":
		c.dedup.GC(op.InGC.BeforeTS)
		return nil
	case "in-vv":
		c.dedup.ObserveVector(op.InVV.Origin, op.InVV.Acked, op.InVV.Frontier, 0, 0)
		return nil
	}
	return fmt.Errorf("unknown wal op kind %q", op.Kind)
}

// restorable refuses a recorded queue entry whose delivery ID is not exactly
// one idgen's Delivery mints for this service, or bears a sequence above
// counter, the restored ID counter, which a later mint could reuse. Accepted
// IDs with one sequence are one ID, merged by the upsert into one entry.
func (c *Controller) restorable(m PendingMsg, counter int64) error {
	s := deliver.Seq(m.DeliveryID)
	if s == 0 || s > uint64(max(counter, 0)) || m.DeliveryID != fmt.Sprintf("%s-dlv-%d", c.Svc.Name, s) {
		return fmt.Errorf("queued message %q: not a delivery ID of %s covered by the ID counter %d", m.DeliveryID, c.Svc.Name, counter)
	}
	return nil
}

// ---- atomic cut (persist's checkpoint snapshot) ---------------------------

// AtomicExport is a consistent cut of every durable controller domain,
// captured under all the relevant locks at once (ExportAtomic) and loaded
// back through the WAL replay apply functions (ImportAtomic). persist's
// checkpoint Snapshot embeds it, so the JSON names are the checkpoint
// format.
type AtomicExport struct {
	// ClockNow is the logical clock's latest timestamp.
	ClockNow int64 `json:"clock_now"`
	// IDCounter is the identifier generator's counter.
	IDCounter int64 `json:"id_counter"`
	// GCBefore is the garbage-collection horizon.
	GCBefore int64 `json:"gc_before,omitempty"`
	// Records is the repair log, oldest first.
	Records []*repairlog.Record `json:"records"`
	// Objects is the versioned database contents.
	Objects []vdb.ObjectDump `json:"objects"`
	// Queue is the outgoing repair message queue; IDCounter covers every
	// entry's delivery ID.
	Queue []PendingMsg `json:"queue,omitempty"`
	// Inbox is the peer-side exactly-once dedup memory (internal/deliver):
	// restoring it keeps a crash-restarted service from re-applying a
	// repair delivery it already applied when the sender redelivers.
	Inbox []deliver.OriginDump `json:"inbox,omitempty"`
}

// ExportAtomic captures the repair log, store, outgoing queue, and dedup
// inbox in ONE critical section (Svc.Mu, then q.mu — the established
// acquisition order). Unlike capturing each
// domain separately, a pump delivery cannot reconcile a message away
// between the log capture and the queue capture, so the cut is consistent:
// this is what persist.Capture builds its snapshot from.
func (c *Controller) ExportAtomic() AtomicExport {
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	c.q.mu.Lock()
	defer c.q.mu.Unlock()

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
	ex.Queue = c.q.snapshot()
	return ex
}

// ImportAtomic loads a cut through the functions WAL replay applies ops
// with: every stored version goes through the store's replayed put, every
// queued message through the q-set upsert, and the dedup memory through
// deliver.Inbox.Restore. The repair log is the exception: Log.Append
// refuses a record ID it already holds, where replay would upsert it.
// Before anything loads, every queued message must be restorable under the
// larger of the cut's ID counter and the controller's. The clock and the
// ID counter only move forward, and the pump is woken as an enqueue wakes
// it. persist.Apply, not ImportAtomic, checks that the controller is empty.
func (c *Controller) ImportAtomic(ex AtomicExport) error {
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	for _, m := range ex.Queue {
		if err := c.restorable(m, max(ex.IDCounter, c.Svc.IDs.Counter())); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	for _, od := range ex.Objects {
		for i := range od.Versions {
			if err := c.Svc.Store.ApplyChange(vdb.Change{Kind: "put", Key: od.Key, Version: &od.Versions[i]}); err != nil {
				return err
			}
		}
	}
	for _, r := range ex.Records {
		if r == nil {
			return fmt.Errorf("core: null repair log record")
		}
		if err := c.Svc.Log.Append(r.Clone()); err != nil {
			return err
		}
	}
	if ex.GCBefore > 0 {
		c.Svc.Log.GC(ex.GCBefore)
		c.Svc.Store.GC(ex.GCBefore)
	}
	c.Svc.Clock.Observe(ex.ClockNow)
	if ex.IDCounter > c.Svc.IDs.Counter() {
		c.Svc.IDs.SetCounter(ex.IDCounter)
	}
	c.dedup.Restore(ex.Inbox)
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	for _, m := range ex.Queue {
		c.q.upsert(m)
	}
	c.wakePump()
	return nil
}
