// Package waltest writes write-ahead logs in the formats older versions
// wrote, so recovery tests can replay state written before a format
// change.
package waltest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"aire/internal/wal"
)

// WriteJSONSegment writes entries to dir as one version-1 segment named for
// firstSeq: the 8-byte header (magic, version 1), then each entry as a
// frame whose payload is the entry's JSON. Each op's Data is spliced in as
// it is, so it must be JSON; entries are written as given, seqs included.
func WriteJSONSegment(dir string, firstSeq uint64, entries []wal.Entry) error {
	type op struct {
		Kind string          `json:"kind"`
		Data json.RawMessage `json:"data,omitempty"`
	}
	type entry struct {
		Seq   uint64 `json:"seq"`
		Kind  string `json:"kind"`
		Clock int64  `json:"clock,omitempty"`
		IDs   int64  `json:"ids,omitempty"`
		Ops   []op   `json:"ops,omitempty"`
	}
	b := binary.BigEndian.AppendUint32(nil, 0xA17E10C5)
	b = binary.BigEndian.AppendUint32(b, wal.FormatJSON)
	for _, e := range entries {
		je := entry{Seq: e.Seq, Kind: e.Kind, Clock: e.Clock, IDs: e.IDs}
		for _, o := range e.Ops {
			je.Ops = append(je.Ops, op{Kind: o.Kind, Data: o.Data})
		}
		payload, err := json.Marshal(je)
		if err != nil {
			return err
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		b = append(b, payload...)
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", firstSeq)), b, 0o644)
}
