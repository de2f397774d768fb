// Package persist serializes an Aire service's durable state — the repair
// log, the versioned database, the logical clock, the identifier counter,
// and the outgoing repair queue — so a service can restart without losing
// the ability to repair its past (§2.2) or to deliver queued repair
// messages to peers that were offline (§3.2).
//
// Durable state lives in one place: a service directory of write-ahead log
// segments (internal/wal) plus checkpoints (checkpoint.go), each checkpoint
// a JSON Snapshot paired with the WAL sequence it covers. A Snapshot is
// never written on its own.
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"aire/internal/core"
	"aire/internal/deliver"
	"aire/internal/repairlog"
	"aire/internal/vdb"
)

// Snapshot is the serializable state of one Aire-enabled service.
type Snapshot struct {
	// Service is the service name, checked on restore.
	Service string `json:"service"`
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
	// Queue is the outgoing repair message queue.
	Queue []core.PendingMsg `json:"queue,omitempty"`
	// Inbox is the peer-side exactly-once dedup memory (internal/deliver):
	// restoring it keeps a crash-restarted service from re-applying a
	// repair delivery it already applied when the sender redelivers.
	Inbox []deliver.OriginDump `json:"inbox,omitempty"`
}

// Capture snapshots a controller. The cut is atomic — the repair log, the
// store, the outgoing queue, and the dedup inbox are all read in one
// critical section (core.ExportAtomic) that also
// holds the pump's claim/reconcile lock — so Capture is safe with the
// background pump running: it sees the queue either before or after any
// delivery's reconcile, never between a claim and its ack.
func Capture(c *core.Controller) *Snapshot {
	ex := c.ExportAtomic()
	return &Snapshot{
		Service:   c.Svc.Name,
		ClockNow:  ex.ClockNow,
		IDCounter: ex.IDCounter,
		GCBefore:  ex.GCBefore,
		Records:   ex.Records,
		Objects:   ex.Objects,
		Queue:     ex.Queue,
		Inbox:     ex.Inbox,
	}
}

// Apply restores a snapshot into a freshly constructed controller (same
// application, empty state).
func Apply(c *core.Controller, s *Snapshot) error {
	if c.Svc.Name != s.Service {
		return fmt.Errorf("persist: snapshot is for service %q, controller is %q", s.Service, c.Svc.Name)
	}
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	if c.Svc.Log.Len() != 0 {
		return fmt.Errorf("persist: controller already has %d log records", c.Svc.Log.Len())
	}
	if err := c.Svc.Store.Restore(s.Objects); err != nil {
		return err
	}
	for _, r := range s.Records {
		if err := c.Svc.Log.Append(r.Clone()); err != nil {
			return err
		}
	}
	if s.GCBefore > 0 {
		c.Svc.Log.GC(s.GCBefore)
		c.Svc.Store.GC(s.GCBefore)
	}
	c.Svc.Clock.Observe(s.ClockNow)
	c.Svc.IDs.SetCounter(s.IDCounter)
	c.ImportInbox(s.Inbox)
	c.ImportQueue(s.Queue)
	return nil
}

// decodeStrict decodes durable state, refusing any field this binary does
// not know. Dropping an unknown field silently would lose state without a
// word — a snapshot written before the dedup inbox's digest epoch that
// carries an eviction "watermark" or "holes" would restore with that dedup
// memory gone — so such a file fails recovery with an error naming the
// field instead.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
