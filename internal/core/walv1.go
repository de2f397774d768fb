package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/wal"
)

// This file is core's one reader of version-1 state, the WAL format
// before binary entries, and nothing here writes it. persist.Load passes
// each version-1 entry through UpgradeV1Entry before replaying it and
// calls DropOwnTombstoneReads once the old state is loaded.

// UpgradeV1Entry returns version-1 entry e as version 2: each op's JSON,
// named by walcodec.go's struct tags, decoded and encoded as walEmit
// encodes it. Version 1 also gave a queued message a second name, a MsgID,
// which a q-set recorded beside the delivery ID (and the MsgID counter as
// "next_id") and a q-del could name the message by. deliveryIDs maps each
// MsgID seen so far, from the checkpoint's queue and earlier q-sets, to
// its delivery ID (it must not be nil); the upgrade adds to it and renames
// a q-del through it. A q-del of a MsgID it does not hold names no queued
// message and is left out, as replay always ignored it.
func UpgradeV1Entry(e wal.Entry, deliveryIDs map[string]string) (wal.Entry, error) {
	out := e
	out.Format, out.Ops = wal.FormatBinary, make([]wal.Op, 0, len(e.Ops))
	var buf []byte
	for i, o := range e.Ops {
		var q struct {
			Msg struct {
				PendingMsg
				MsgID string
			} `json:"msg"`
			NextID     int    `json:"next_id"`
			DeliveryID string `json:"delivery_id"`
			MsgID      string `json:"msg_id"`
		}
		op := walOp{Kind: o.Kind}
		v := map[string]any{"vdb": &op.VDB, "log": &op.Log, "q-set": &q, "q-del": &q, "in-commit": &op.Inbox, "in-gc": &op.InGC, "in-vv": &op.InVV}[o.Kind]
		err := fmt.Errorf("unknown wal op kind %q", o.Kind)
		if v != nil {
			dec := json.NewDecoder(bytes.NewReader(o.Data))
			if o.Kind == "q-set" {
				dec.DisallowUnknownFields() // a queued message is read as strictly as a checkpoint's
			}
			err = dec.Decode(v)
		}
		if err == nil && o.Kind == "q-set" {
			op.QSet, deliveryIDs[q.Msg.MsgID] = q.Msg.PendingMsg, q.Msg.DeliveryID
		}
		if err == nil && o.Kind == "q-del" {
			if q.DeliveryID == "" && q.MsgID == "" {
				err = fmt.Errorf("q-del names no message")
			} else if op.QDel = cmp.Or(q.DeliveryID, deliveryIDs[q.MsgID]); op.QDel == "" {
				continue
			}
		}
		if err != nil {
			return e, fmt.Errorf("core: wal entry %d (%s): op %d (%s): %w", e.Seq, e.Kind, i, o.Kind, err)
		}
		start := len(buf)
		buf = op.append(buf)
		out.Ops = append(out.Ops, wal.Op{Kind: o.Kind, Data: buf[start:len(buf):len(buf)]})
	}
	return out, nil
}

// DropOwnTombstoneReads removes from every record in the log a logged miss
// of a key the record wrote when the version before the record's own
// write is live: a read from before the write would have logged that
// version, so the miss was read after the record deleted the key. orm
// logged such reads until it stopped recording reads of the request's own
// delete. Repair checks a read with the record's own writes masked, so
// the miss never matched again and every repair that reached the record
// re-executed it. persist.Load calls this once after loading version-1
// state, before a WAL is attached.
func (c *Controller) DropOwnTombstoneReads() error {
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	st := c.Svc.Store
	for _, r := range c.Svc.Log.All() {
		stale := func(d repairlog.ReadDep) bool {
			return d.Hash == vdb.MissingHash && st.HasVersion(d.Key, r.TS, r.ID) && st.HashAtExcluding(d.Key, r.TS, r.ID) != vdb.MissingHash
		}
		if !slices.ContainsFunc(r.Reads, stale) {
			continue
		}
		if err := c.Svc.Log.Update(r.ID, func(rec *repairlog.Record) {
			if rec.Reads = slices.DeleteFunc(rec.Reads, stale); len(rec.Reads) == 0 {
				rec.Reads = nil // as a record without reads is logged
			}
		}); err != nil {
			return fmt.Errorf("core: upgrade record %s: %w", r.ID, err)
		}
	}
	return nil
}
