package persist_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aire/internal/core"
	"aire/internal/deliver"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// truncateWALAfter cuts dir's log back to exactly upToSeq entries,
// simulating a power loss at that entry boundary: every entry with a later
// sequence is discarded. The tests here stay within one segment, so only
// the final segment is walked (framing per the wal package docs: an 8-byte
// segment header, then [4B len][4B crc][payload] records).
func truncateWALAfter(t *testing.T, dir string, upToSeq uint64) {
	t.Helper()
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments: %v (%d)", err, len(segs))
	}
	path := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(8) // segment header
	for off < int64(len(data)) {
		ln := int64(binary.BigEndian.Uint32(data[off : off+4]))
		var e struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(data[off+8:off+8+ln], &e); err != nil {
			t.Fatalf("undecodable entry at %d: %v", off, err)
		}
		if e.Seq > upToSeq {
			if err := os.Truncate(path, off); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += 8 + ln
	}
}

// createCarrier builds a create-bearing repair carrier the way the pump's
// delivery path does, with explicit exactly-once delivery identity, so a
// test can replay the identical redelivery a retrying sender would issue.
func createCarrier(payload wire.Request, origin, deliveryID string) wire.Request {
	req := wire.NewRequest("POST", "/aire/repair")
	req.Header[wire.HdrRepair] = string(warp.OutCreate)
	req.Header[wire.HdrResponseID] = origin + "-resp-1"
	req.Header[wire.HdrNotifierURL] = transport.NotifierURL(origin)
	req.Body = payload.Encode()
	req.Header[wire.HdrDeliveryID] = deliveryID
	req.Header[wire.HdrGeneration] = "0"
	req.Header[wire.HdrOrigin] = origin
	// What a sender holding just this delivery announces.
	seq := deliver.Seq(deliveryID)
	req.Header[wire.HdrAckedSeq] = fmt.Sprint(seq - 1)
	req.Header[wire.HdrFrontierSeq] = fmt.Sprint(seq)
	return req
}

// runDirectCreateCrash delivers one create carrier to a WAL-attached
// receiver "b" (direct-apply mode) that cascades the created write to "c",
// crashes b at the WAL entry boundary `keep` entries into the delivery,
// recovers, replays the sender's redelivery of the identical carrier, and
// drains. It returns b's and c's repair-log record counts — exactly-once
// demands 1 and 1 at every crash point — plus how many entries the first
// delivery appended (so the caller can sweep every boundary).
func runDirectCreateCrash(t *testing.T, split bool, keep uint64) (bRecords, cRecords int, appended uint64) {
	t.Helper()
	dir := t.TempDir()
	bus := transport.NewBus()
	cfg := core.DefaultConfig()
	b := core.NewController(&harness.KVApp{ServiceName: "b", Mirror: "c"}, bus, cfg)
	b.InjectFaults(core.Faults{SplitRepairCommit: split})
	bus.Register("b", b)
	cc := core.NewController(&harness.KVApp{ServiceName: "c"}, bus, core.DefaultConfig())
	bus.Register("c", cc)
	w, err := persist.Recover(b, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}

	create := createCarrier(wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "shared"), "a", "a-dlv-1")
	resp, err := bus.Call("a", "b", create)
	if err != nil || !resp.OK() {
		t.Fatalf("create delivery: %v %+v", err, resp)
	}
	appended = w.Seq()
	if keep > appended {
		t.Fatalf("crash point %d past the delivery's %d entries", keep, appended)
	}

	// Power loss at the chosen entry boundary, then recovery.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	truncateWALAfter(t, dir, keep)
	b2 := core.NewController(&harness.KVApp{ServiceName: "b", Mirror: "c"}, bus, cfg)
	b2.InjectFaults(core.Faults{SplitRepairCommit: split})
	w2, err := persist.Recover(b2, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	bus.Register("b", b2)

	// The sender never saw an ack for the crashed delivery, so it retries
	// the identical carrier; then the recovered queue drains to c.
	resp, err = bus.Call("a", "b", create.Clone())
	if err != nil || !resp.OK() {
		t.Fatalf("redelivery: %v %+v", err, resp)
	}
	for i := 0; i < 10; i++ {
		if d, _ := b2.Flush(); d == 0 {
			break
		}
	}
	return b2.Svc.Log.Len(), cc.Svc.Log.Len(), appended
}

// TestAtomicRepairCommitSurvivesAnyCrashPoint sweeps every WAL entry
// boundary of a gated direct-apply create delivery: with the repair
// mutations, queue effects, and inbox commit folded into one atomic entry
// (preceded only by the carrier's vector observation, an idempotent
// monotonic advance that commits nothing about the delivery itself), no
// crash point followed by the sender's redelivery can mint a duplicate
// record at the receiver or double-queue the cascade downstream.
func TestAtomicRepairCommitSurvivesAnyCrashPoint(t *testing.T) {
	_, _, appended := runDirectCreateCrash(t, false, 0)
	if appended != 2 {
		t.Fatalf("gated create delivery appended %d entries, want 2 (in-vv observation, then 1 atomic entry)", appended)
	}
	for keep := uint64(0); keep <= appended; keep++ {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			bRecs, cRecs, _ := runDirectCreateCrash(t, false, keep)
			if bRecs != 1 || cRecs != 1 {
				t.Fatalf("crash at boundary %d: b has %d records, c has %d, want exactly 1 and 1", keep, bRecs, cRecs)
			}
		})
	}
}

// TestSplitRepairCommitDoubleQueues pins the pre-fix hazard this PR closes:
// with the historical split commit (repair entry, then standalone queue
// entries, then a standalone inbox commit — reintroduced via
// Faults.SplitRepairCommit), there is a crash boundary where the
// repair and its queued cascade are durable but the inbox commit is not.
// The sender's redelivery then re-applies the create — a duplicate record
// at the receiver AND a double-queued cascade downstream.
func TestSplitRepairCommitDoubleQueues(t *testing.T) {
	_, _, appended := runDirectCreateCrash(t, true, 0)
	if appended < 3 {
		t.Fatalf("split-commit create delivery appended %d entries, want >= 3 (repair, q-set, in-commit)", appended)
	}
	violations := 0
	doubleQueued := false
	for keep := uint64(0); keep <= appended; keep++ {
		bRecs, cRecs, _ := runDirectCreateCrash(t, true, keep)
		if bRecs != 1 || cRecs != 1 {
			violations++
			t.Logf("boundary %d: b=%d c=%d records", keep, bRecs, cRecs)
		}
		if bRecs == 2 && cRecs == 2 {
			doubleQueued = true
		}
	}
	if violations == 0 {
		t.Fatal("split-commit path no longer violates exactly-once at any crash boundary; the fault flag is not reproducing the pre-fix behavior")
	}
	if !doubleQueued {
		t.Fatal("no crash boundary double-queued the cascade (b=2, c=2); the documented window is not reproduced")
	}
}

// runBatchCancelCrash drives the batch-incoming variant: an upstream "a"
// repairs an attack write that was mirrored a→b→c, b (BatchIncoming, WAL)
// accepts the repair delivery, applies it via ProcessIncoming, and crashes
// at entry boundary `keep` within ProcessIncoming's entries. After
// recovery b re-runs ProcessIncoming (in case the accepted batch is still
// pending) and drains. Returns c's observed value for the repaired key —
// "good" iff the cascade survived — and ProcessIncoming's entry count.
func runBatchCancelCrash(t *testing.T, split bool, keep uint64) (cVal string, appended uint64) {
	t.Helper()
	dir := t.TempDir()
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	bus.Register("a", a)
	bcfg := core.DefaultConfig()
	bcfg.BatchIncoming = true
	b := core.NewController(&harness.KVApp{ServiceName: "b", Mirror: "c"}, bus, bcfg)
	b.InjectFaults(core.Faults{SplitRepairCommit: split})
	bus.Register("b", b)
	cc := core.NewController(&harness.KVApp{ServiceName: "c"}, bus, core.DefaultConfig())
	bus.Register("c", cc)
	w, err := persist.Recover(b, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}

	mustCall := func(svc string, req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", svc, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %s: %v %+v", req.Method, req.Path, err, resp)
		}
		return resp
	}
	mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "good"))
	attack := mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "evil"))

	// Repair at a; b accepts the delivery into its incoming batch (202).
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if b.InboxLen() == 0 {
		t.Fatal("b did not accept the repair into its batch")
	}
	accepted := w.Seq()
	if _, err := b.ProcessIncoming(); err != nil {
		t.Fatal(err)
	}
	appended = w.Seq() - accepted
	if keep > appended {
		t.Fatalf("crash point %d past ProcessIncoming's %d entries", keep, appended)
	}

	// Power loss `keep` entries into the batch apply, then recovery.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	truncateWALAfter(t, dir, accepted+keep)
	b2 := core.NewController(&harness.KVApp{ServiceName: "b", Mirror: "c"}, bus, bcfg)
	b2.InjectFaults(core.Faults{SplitRepairCommit: split})
	w2, err := persist.Recover(b2, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	bus.Register("b", b2)

	// a saw the 202 and reconciled, so nothing upstream retries: b2 must
	// make the cascade whole from its own durable state.
	if _, err := b2.ProcessIncoming(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if d, _ := b2.Flush(); d == 0 {
			break
		}
	}
	resp := mustCall("c", wire.NewRequest("GET", "/get").WithForm("key", "x"))
	return string(resp.Body), appended
}

// TestAtomicBatchCommitSurvivesAnyCrashPoint sweeps every crash boundary
// of ProcessIncoming's WAL commit: with the batch's repair mutations,
// inbox commits, drain watermark, AND queue effects in one atomic entry,
// the cascade to the downstream mirror survives a crash at any boundary —
// either the batch never applied (the accepted actions are still pending
// and re-apply) or it applied with its outgoing messages durably queued.
func TestAtomicBatchCommitSurvivesAnyCrashPoint(t *testing.T) {
	_, appended := runBatchCancelCrash(t, false, 0)
	if appended != 1 {
		t.Fatalf("batch apply appended %d entries, want 1 atomic entry", appended)
	}
	for keep := uint64(0); keep <= appended; keep++ {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			cVal, _ := runBatchCancelCrash(t, false, keep)
			if cVal != "good" {
				t.Fatalf("crash at boundary %d lost the repair cascade: c has %q, want %q", keep, cVal, "good")
			}
		})
	}
}

// TestSplitBatchCommitLosesCascade pins the other half of the pre-fix
// hazard: with queue effects written as standalone entries after the batch
// commit, there is a crash boundary where the inbox is committed and
// drained (so nothing will ever retry) but the cascade messages were never
// durably queued — the downstream mirror keeps the attack value forever.
func TestSplitBatchCommitLosesCascade(t *testing.T) {
	_, appended := runBatchCancelCrash(t, true, 0)
	if appended < 2 {
		t.Fatalf("split batch apply appended %d entries, want >= 2 (batch commit, q-set)", appended)
	}
	lost := false
	for keep := uint64(0); keep <= appended; keep++ {
		cVal, _ := runBatchCancelCrash(t, true, keep)
		if cVal != "good" {
			lost = true
			t.Logf("boundary %d: c left with %q", keep, cVal)
		}
	}
	if !lost {
		t.Fatal("split batch commit no longer loses the cascade at any crash boundary; the fault flag is not reproducing the pre-fix behavior")
	}
}
