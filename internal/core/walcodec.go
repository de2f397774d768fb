package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file is the WAL's op codec: what each op kind records, how a
// version-2 segment encodes it, and how both formats decode it. Every field
// is written, in declaration order, with the frame codec's primitives
// (internal/wire): str is a uvarint length and the bytes, map a uvarint
// count and its entries in ascending key order, request and response
// wire.AppendRequest and wire.AppendResponse, uint a uvarint, int a zigzag
// varint, and bool a uvarint that must be 0 or 1. A list is a uvarint
// count and its elements; an optional value is a bool and, when true, the
// value.
//
//	vdb       = str(kind) key bool(version?) [version] int(ts)
//	key       = str(model) str(id)
//	version   = int(ts) str(req_id) bool(deleted) bool(immutable) map(fields)
//	log       = str(kind) bool(record?) [record] int(before_ts)
//	record    = str(id) int(ts) str(from) str(client_resp_id) str(notifier_url)
//	            request response list(read) list(scan) list(write) list(call)
//	            list(nondet) list(effect) bool(skipped) bool(synthetic) int(repair_gen)
//	read      = key int(ts) uint(hash)
//	scan      = str(model) uint(hash)
//	write     = key int(ts)
//	call      = int(seq) str(target) str(resp_id) str(remote_req_id) request
//	            response bool(tentative) bool(failed)
//	nondet    = str(kind) int(value)
//	effect    = int(seq) str(kind) str(payload)
//	q-set     = str(delivery_id) outmsg int(attempts) bool(held) str(last_err)
//	            uint(gen) str(trace_id) int(trace_hop)
//	outmsg    = str(kind) str(target) str(remote_req_id) request str(resp_id)
//	            str(before_id) str(after_id) response str(notifier_url)
//	            str(local_req_id) str(call_resp_id)
//	q-del     = str(delivery_id)
//	in-commit = str(origin) str(id) uint(gen) bool(once) str(outcome) int(ts)
//	in-gc     = int(before_ts)
//	in-vv     = str(origin) uint(acked) uint(frontier)
//
// Decoding is strict: a non-minimal length, a count or length larger than
// the bytes left, unsorted or repeated map keys, a bool other than 0 or 1
// and trailing bytes are refused, so an accepted op re-encodes to the
// bytes it came from. Replay reads version 2 alone; walv1.go turns a
// version-1 entry, whose ops are JSON under the struct tags below, into
// this format first.

// walOp is one op, encoded or decoded: Kind says which field holds it.
type walOp struct {
	Kind  string
	VDB   vdb.Change
	Log   repairlog.Change
	QSet  PendingMsg // a queue entry's state
	QDel  string     // a removed queue entry's delivery ID
	Inbox inboxOp
	InGC  inGCOp
	InVV  inVVOp
}

// inboxOp records a dedup-inbox commit ("in-commit").
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

// ---- encoding ----------------------------------------------------------

// append appends the op's version-2 data.
func (o *walOp) append(b []byte) []byte {
	switch o.Kind {
	case "vdb":
		return appendVDBChange(b, &o.VDB)
	case "log":
		return appendLogChange(b, &o.Log)
	case "q-set":
		return appendPendingMsg(b, &o.QSet)
	case "q-del":
		return wire.AppendStr(b, o.QDel)
	case "in-commit":
		m := &o.Inbox
		b = wire.AppendStr(b, m.Origin)
		b = wire.AppendStr(b, m.ID)
		b = binary.AppendUvarint(b, m.Gen)
		b = appendBool(b, m.Once)
		b = wire.AppendStr(b, m.Outcome)
		return binary.AppendVarint(b, m.TS)
	case "in-gc":
		return binary.AppendVarint(b, o.InGC.BeforeTS)
	case "in-vv":
		b = wire.AppendStr(b, o.InVV.Origin)
		b = binary.AppendUvarint(b, o.InVV.Acked)
		return binary.AppendUvarint(b, o.InVV.Frontier)
	}
	panic("core: no wal encoding for op kind " + o.Kind)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendKey(b []byte, k vdb.Key) []byte {
	b = wire.AppendStr(b, k.Model)
	return wire.AppendStr(b, k.ID)
}

func appendVDBChange(b []byte, ch *vdb.Change) []byte {
	b = wire.AppendStr(b, ch.Kind)
	b = appendKey(b, ch.Key)
	b = appendBool(b, ch.Version != nil)
	if v := ch.Version; v != nil {
		b = binary.AppendVarint(b, v.TS)
		b = wire.AppendStr(b, v.ReqID)
		b = appendBool(b, v.Deleted)
		b = appendBool(b, v.Immutable)
		b = wire.AppendMap(b, v.Fields)
	}
	return binary.AppendVarint(b, ch.TS)
}

func appendLogChange(b []byte, ch *repairlog.Change) []byte {
	b = wire.AppendStr(b, ch.Kind)
	b = appendBool(b, ch.Record != nil)
	if ch.Record != nil {
		b = appendRecord(b, ch.Record)
	}
	return binary.AppendVarint(b, ch.BeforeTS)
}

func appendRecord(b []byte, r *repairlog.Record) []byte {
	b = wire.AppendStr(b, r.ID)
	b = binary.AppendVarint(b, r.TS)
	b = wire.AppendStr(b, r.From)
	b = wire.AppendStr(b, r.ClientRespID)
	b = wire.AppendStr(b, r.NotifierURL)
	b = wire.AppendRequest(b, &r.Req)
	b = wire.AppendResponse(b, &r.Resp)
	b = binary.AppendUvarint(b, uint64(len(r.Reads)))
	for _, d := range r.Reads {
		b = appendKey(b, d.Key)
		b = binary.AppendVarint(b, d.TS)
		b = binary.AppendUvarint(b, d.Hash)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Scans)))
	for _, d := range r.Scans {
		b = wire.AppendStr(b, d.Model)
		b = binary.AppendUvarint(b, d.Hash)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Writes)))
	for _, d := range r.Writes {
		b = appendKey(b, d.Key)
		b = binary.AppendVarint(b, d.TS)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Calls)))
	for i := range r.Calls {
		c := &r.Calls[i]
		b = binary.AppendVarint(b, int64(c.Seq))
		b = wire.AppendStr(b, c.Target)
		b = wire.AppendStr(b, c.RespID)
		b = wire.AppendStr(b, c.RemoteReqID)
		b = wire.AppendRequest(b, &c.Req)
		b = wire.AppendResponse(b, &c.Resp)
		b = appendBool(b, c.Tentative)
		b = appendBool(b, c.Failed)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Nondet)))
	for _, n := range r.Nondet {
		b = wire.AppendStr(b, n.Kind)
		b = binary.AppendVarint(b, n.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Effects)))
	for _, e := range r.Effects {
		b = binary.AppendVarint(b, int64(e.Seq))
		b = wire.AppendStr(b, e.Kind)
		b = wire.AppendStr(b, e.Payload)
	}
	b = appendBool(b, r.Skipped)
	b = appendBool(b, r.Synthetic)
	return binary.AppendVarint(b, int64(r.RepairGen))
}

func appendPendingMsg(b []byte, p *PendingMsg) []byte {
	b = wire.AppendStr(b, p.DeliveryID)
	m := &p.Msg
	b = wire.AppendStr(b, string(m.Kind))
	b = wire.AppendStr(b, m.Target)
	b = wire.AppendStr(b, m.RemoteReqID)
	b = wire.AppendRequest(b, &m.Req)
	b = wire.AppendStr(b, m.RespID)
	b = wire.AppendStr(b, m.BeforeID)
	b = wire.AppendStr(b, m.AfterID)
	b = wire.AppendResponse(b, &m.Resp)
	b = wire.AppendStr(b, m.NotifierURL)
	b = wire.AppendStr(b, m.LocalReqID)
	b = wire.AppendStr(b, m.CallRespID)
	b = binary.AppendVarint(b, int64(p.Attempts))
	b = appendBool(b, p.Held)
	b = wire.AppendStr(b, p.LastErr)
	b = binary.AppendUvarint(b, p.Gen)
	b = wire.AppendStr(b, p.TraceID)
	return binary.AppendVarint(b, int64(p.TraceHop))
}

// ---- decoding ----------------------------------------------------------

// readEntryOps decodes a recovered version-2 entry's ops one at a time
// into one walOp and calls fn with each; it stops at the first error. The
// entry's op data is first copied into one string, which every string
// decoded from the entry shares: replayed state outlives the segment's
// bytes, and one copy per entry costs one allocation.
func readEntryOps(e wal.Entry, fn func(i int, op *walOp) error) error {
	var op walOp
	var sb strings.Builder
	n := 0
	for _, o := range e.Ops {
		n += len(o.Data)
	}
	sb.Grow(n)
	for _, o := range e.Ops {
		sb.Write(o.Data)
	}
	s, off := sb.String(), 0
	for i, o := range e.Ops {
		d := wire.NewDecoder(s[off : off+len(o.Data)])
		off += len(o.Data)
		op = walOp{Kind: o.Kind}
		if err := op.read(&d); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, o.Kind, err)
		}
		if err := fn(i, &op); err != nil {
			return err
		}
	}
	return nil
}

// read decodes the op's version-2 data, which must be all d holds.
func (o *walOp) read(d *wire.Decoder) error {
	switch o.Kind {
	case "vdb":
		o.VDB = readVDBChange(d)
	case "log":
		o.Log = readLogChange(d)
	case "q-set":
		o.QSet = readPendingMsg(d)
	case "q-del":
		o.QDel = d.Str()
	case "in-commit":
		m := &o.Inbox
		m.Origin, m.ID = d.Str(), d.Str()
		m.Gen = d.Uvarint(^uint64(0))
		m.Once = d.Bool()
		m.Outcome = d.Str()
		m.TS = d.Varint()
	case "in-gc":
		o.InGC.BeforeTS = d.Varint()
	case "in-vv":
		o.InVV.Origin = d.Str()
		o.InVV.Acked = d.Uvarint(^uint64(0))
		o.InVV.Frontier = d.Uvarint(^uint64(0))
	default:
		return fmt.Errorf("unknown wal op kind %q", o.Kind)
	}
	return d.Close()
}

// listLen reads a list length, refusing one the bytes left could not hold
// at minBytes per element before anything is made for it.
func listLen(d *wire.Decoder, minBytes int) int {
	return int(d.Uvarint(uint64(d.Left() / minBytes)))
}

func readKey(d *wire.Decoder) vdb.Key {
	return vdb.Key{Model: d.Str(), ID: d.Str()}
}

func readVDBChange(d *wire.Decoder) vdb.Change {
	ch := vdb.Change{Kind: d.Str(), Key: readKey(d)}
	if d.Bool() {
		ch.Version = &vdb.Version{TS: d.Varint(), ReqID: d.Str(), Deleted: d.Bool(), Immutable: d.Bool(), Fields: d.StrMap()}
	}
	ch.TS = d.Varint()
	return ch
}

func readLogChange(d *wire.Decoder) repairlog.Change {
	ch := repairlog.Change{Kind: d.Str()}
	if d.Bool() {
		ch.Record = readRecord(d)
	}
	ch.BeforeTS = d.Varint()
	return ch
}

func readRecord(d *wire.Decoder) *repairlog.Record {
	r := &repairlog.Record{ID: d.Str(), TS: d.Varint(), From: d.Str(), ClientRespID: d.Str(), NotifierURL: d.Str()}
	r.Req, r.Resp = d.Request(), d.Response()
	if n := listLen(d, 4); n > 0 {
		r.Reads = make([]repairlog.ReadDep, n)
		for i := range r.Reads {
			r.Reads[i] = repairlog.ReadDep{Key: readKey(d), TS: d.Varint(), Hash: d.Uvarint(^uint64(0))}
		}
	}
	if n := listLen(d, 2); n > 0 {
		r.Scans = make([]repairlog.ScanDep, n)
		for i := range r.Scans {
			r.Scans[i] = repairlog.ScanDep{Model: d.Str(), Hash: d.Uvarint(^uint64(0))}
		}
	}
	if n := listLen(d, 3); n > 0 {
		r.Writes = make([]repairlog.WriteDep, n)
		for i := range r.Writes {
			r.Writes[i] = repairlog.WriteDep{Key: readKey(d), TS: d.Varint()}
		}
	}
	if n := listLen(d, 14); n > 0 {
		r.Calls = make([]repairlog.Call, n)
		for i := range r.Calls {
			c := &r.Calls[i]
			c.Seq = int(d.Varint())
			c.Target, c.RespID, c.RemoteReqID = d.Str(), d.Str(), d.Str()
			c.Req, c.Resp = d.Request(), d.Response()
			c.Tentative, c.Failed = d.Bool(), d.Bool()
		}
	}
	if n := listLen(d, 2); n > 0 {
		r.Nondet = make([]repairlog.Nondet, n)
		for i := range r.Nondet {
			r.Nondet[i] = repairlog.Nondet{Kind: d.Str(), Value: d.Varint()}
		}
	}
	if n := listLen(d, 3); n > 0 {
		r.Effects = make([]repairlog.Effect, n)
		for i := range r.Effects {
			r.Effects[i] = repairlog.Effect{Seq: int(d.Varint()), Kind: d.Str(), Payload: d.Str()}
		}
	}
	r.Skipped, r.Synthetic = d.Bool(), d.Bool()
	r.RepairGen = int(d.Varint())
	return r
}

func readPendingMsg(d *wire.Decoder) PendingMsg {
	p := PendingMsg{DeliveryID: d.Str()}
	m := &p.Msg
	m.Kind = warp.OutKind(d.Str())
	m.Target, m.RemoteReqID = d.Str(), d.Str()
	m.Req = d.Request()
	m.RespID, m.BeforeID, m.AfterID = d.Str(), d.Str(), d.Str()
	m.Resp = d.Response()
	m.NotifierURL, m.LocalReqID, m.CallRespID = d.Str(), d.Str(), d.Str()
	p.Attempts = int(d.Varint())
	p.Held = d.Bool()
	p.LastErr = d.Str()
	p.Gen = d.Uvarint(^uint64(0))
	p.TraceID = d.Str()
	p.TraceHop = int(d.Varint())
	return p
}
