package persist

import (
	"bytes"

	"aire/internal/core"
	"aire/internal/wal"
)

// This file is persist's one reader of version-1 state: what binaries
// wrote before the checkpoint's format field. A version-1 checkpoint has
// no "format"; its snapshot carries the retired MsgID counter "next_id",
// and each queued message a retired second name, "MsgID". Its WAL
// segments hold JSON entries (wal.FormatJSON), which core.UpgradeV1Entry
// turns into version 2. Load reads version-1 state through these decoders
// and writes nothing; Recover then writes what it loaded as a format-2
// checkpoint and deletes the segments it covers, so version 1 is read
// once.

// v1Checkpoint is a version-1 checkpoint file.
type v1Checkpoint struct {
	UpToSeq uint64 `json:"up_to_seq"`
	Snap    *struct {
		Snapshot
		Queue []struct {
			core.PendingMsg
			MsgID string
		} `json:"queue,omitempty"`
		NextID int `json:"next_id,omitempty"`
	} `json:"snapshot"`
}

// decodeV1Checkpoint decodes a version-1 checkpoint as strictly as a
// current one, refusing a key neither format knows. It comes back as the
// current Checkpoint with Format 1, keeping each queued message's MsgID
// for its WAL tail's upgrade.
func decodeV1Checkpoint(data []byte) (*Checkpoint, error) {
	var v v1Checkpoint
	if err := decodeStrict(bytes.NewReader(data), &v); err != nil {
		return nil, err
	}
	cp := &Checkpoint{Format: 1, UpToSeq: v.UpToSeq, deliveryIDs: map[string]string{}}
	if v.Snap != nil {
		cp.Snap = &v.Snap.Snapshot
		for _, m := range v.Snap.Queue {
			cp.Snap.Queue = append(cp.Snap.Queue, m.PendingMsg)
			cp.deliveryIDs[m.MsgID] = m.DeliveryID
		}
	}
	return cp, nil
}

// replayV1 returns load's replay function: it applies each entry to c,
// upgrading a version-1 entry first and then setting *read, the upgrade
// seeded with a version-1 checkpoint's MsgIDs.
func replayV1(c *core.Controller, cp *Checkpoint, read *bool) func(wal.Entry) error {
	deliveryIDs := map[string]string{}
	if cp != nil && cp.Format == 1 {
		deliveryIDs = cp.deliveryIDs
	}
	return func(e wal.Entry) error {
		if e.Format == wal.FormatJSON {
			var err error
			if e, err = core.UpgradeV1Entry(e, deliveryIDs); err != nil {
				return err
			}
			*read = true
		}
		return c.ApplyWALEntry(e)
	}
}
