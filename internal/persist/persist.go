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
)

// Snapshot is the serializable state of one Aire-enabled service: the
// controller's atomic cut under the service's name.
type Snapshot struct {
	// Service is the service name, checked on restore.
	Service string `json:"service"`
	core.AtomicExport
}

// Capture snapshots a controller. The cut is atomic — the repair log, the
// store, the outgoing queue, and the dedup inbox are all read in one
// critical section (core.ExportAtomic) that also
// holds the pump's claim/reconcile lock — so Capture is safe with the
// background pump running: it sees the queue either before or after any
// delivery's reconcile, never between a claim and its ack.
func Capture(c *core.Controller) *Snapshot {
	return &Snapshot{Service: c.Svc.Name, AtomicExport: c.ExportAtomic()}
}

// Apply restores a snapshot into a freshly constructed controller (same
// application, empty state) through the WAL replay path
// (core.ImportAtomic).
func Apply(c *core.Controller, s *Snapshot) error {
	if c.Svc.Name != s.Service {
		return fmt.Errorf("persist: snapshot is for service %q, controller is %q", s.Service, c.Svc.Name)
	}
	if n := c.Svc.Log.Len(); n != 0 {
		return fmt.Errorf("persist: controller already has %d log records", n)
	}
	if c.Svc.Store.VersionBytes() != 0 || c.QueueLen() != 0 {
		return fmt.Errorf("persist: controller already holds store writes or queued messages")
	}
	return c.ImportAtomic(s.AtomicExport)
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
