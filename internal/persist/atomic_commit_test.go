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
// crashes b at the WAL entry boundary `keep`, recovers, replays the sender's
// redelivery of the identical carrier, and drains. A crash point past the
// delivery's entries falls after b has also handed its cascade to c. It
// returns b's and c's repair-log record counts — exactly-once demands 1 and
// 1 at every crash point — plus how many entries the delivery appended and
// how many b had appended in all when it crashed.
func runDirectCreateCrash(t *testing.T, split bool, keep uint64) (bRecords, cRecords int, delivered, appended uint64) {
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
	delivered = w.Seq()
	if keep > delivered {
		// The crash falls after the delivery: b first delivers its cascade.
		for i := 0; i < 10; i++ {
			if d, _ := b.Flush(); d == 0 {
				break
			}
		}
	}
	appended = w.Seq()
	if keep > appended {
		t.Fatalf("crash point %d past b's %d entries", keep, appended)
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
	return b2.Svc.Log.Len(), cc.Svc.Log.Len(), delivered, appended
}

// TestAtomicRepairCommitSurvivesAnyCrashPoint sweeps every WAL entry
// boundary of a gated direct-apply create delivery: with the repair
// mutations, queue effects, and inbox commit folded into one atomic entry
// (the carrier's vector observation included), no
// crash point followed by the sender's redelivery can mint a duplicate
// record at the receiver or double-queue the cascade downstream. The sweep
// runs one boundary further, past b's reconcile of the cascade it delivered
// to c, so the recovered b neither re-applies nor re-sends.
func TestAtomicRepairCommitSurvivesAnyCrashPoint(t *testing.T) {
	_, _, delivered, _ := runDirectCreateCrash(t, false, 0)
	if delivered != 1 {
		t.Fatalf("gated create delivery appended %d entries, want 1 atomic entry", delivered)
	}
	for keep := uint64(0); keep <= delivered+1; keep++ {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			bRecs, cRecs, _, _ := runDirectCreateCrash(t, false, keep)
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
	_, _, appended, _ := runDirectCreateCrash(t, true, 0)
	if appended < 3 {
		t.Fatalf("split-commit create delivery appended %d entries, want >= 3 (repair, q-set, in-commit)", appended)
	}
	violations := 0
	doubleQueued := false
	for keep := uint64(0); keep <= appended; keep++ {
		bRecs, cRecs, _, _ := runDirectCreateCrash(t, true, keep)
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

// runFrameCancelCrash drives a frame through a crash at the receiver. An
// upstream "a" repairs two attack writes mirrored a→b→c in one wave; its
// two carriers to b travel as one frame, which b (on a WAL) applies — and
// whose answer is lost, so a still holds both messages. b then crashes at
// WAL entry boundary keep within the frame's apply, recovers, receives a's
// redelivery of the identical frame, and drains its own cascade to c.
// Returns c's values for the two keys ("good" iff the cascade survived),
// how many entries the frame's apply appended, and the recovered b's stats.
func runFrameCancelCrash(t *testing.T, split bool, keep uint64) (cVals [2]string, appended uint64, st core.Stats) {
	t.Helper()
	dir := t.TempDir()
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, &lossyCaller{bus: bus, lose: 1}, core.DefaultConfig())
	bus.Register("a", a)
	newB := func() *core.Controller {
		b := core.NewController(&harness.KVApp{ServiceName: "b", Mirror: "c"}, bus, core.DefaultConfig())
		b.InjectFaults(core.Faults{SplitRepairCommit: split})
		bus.Register("b", b)
		return b
	}
	b := newB()
	bus.Register("c", core.NewController(&harness.KVApp{ServiceName: "c"}, bus, core.DefaultConfig()))
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
	keys := []string{"x", "y"}
	var cancels []warp.Action
	for _, k := range keys {
		mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", k, "val", "good"))
		attack := mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", k, "val", "evil"))
		cancels = append(cancels, warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]})
	}
	if _, err := a.ApplyLocal(cancels...); err != nil {
		t.Fatal(err)
	}
	before := w.Seq()
	a.Flush()
	appended = w.Seq() - before
	if a.QueueLen() != 2 {
		t.Fatalf("a holds %d messages, want 2 (the frame's answer was lost)", a.QueueLen())
	}
	if keep > appended {
		t.Fatalf("crash point %d past the frame's %d entries", keep, appended)
	}

	// Power loss keep entries into the frame's apply, then recovery.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	truncateWALAfter(t, dir, before+keep)
	b2 := newB()
	w2, err := persist.Recover(b2, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	// a never saw an answer, so it redelivers the identical frame; then b2
	// drains the cascade it recovered or re-derived.
	a.Flush()
	for i := 0; i < 10; i++ {
		if d, _ := b2.Flush(); d == 0 {
			break
		}
	}
	for i, k := range keys {
		cVals[i] = string(mustCall("c", wire.NewRequest("GET", "/get").WithForm("key", k)).Body)
	}
	return cVals, appended, b2.Stats()
}

// TestAtomicBatchCommitSurvivesAnyCrashPoint sweeps every WAL entry
// boundary of a frame's apply at the receiver: with the repair's mutations,
// every carrier's inbox outcome, the vector advance, AND the queue effects
// in one atomic entry, the frame never half-applies — either nothing of it
// survived the crash and the sender's redelivery applies it whole, or all of
// it did and the redelivery is re-acknowledged — and the cascade to the
// downstream mirror survives every boundary.
func TestAtomicBatchCommitSurvivesAnyCrashPoint(t *testing.T) {
	_, appended, _ := runFrameCancelCrash(t, false, 0)
	if appended != 1 {
		t.Fatalf("frame apply appended %d entries, want 1 atomic entry", appended)
	}
	for keep := uint64(0); keep <= appended; keep++ {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			cVals, _, st := runFrameCancelCrash(t, false, keep)
			if cVals != [2]string{"good", "good"} {
				t.Fatalf("crash at boundary %d lost the repair cascade: c has %v", keep, cVals)
			}
			want := core.Stats{RepairsRun: 1} // nothing survived: the redelivery applies
			if keep == appended {
				want = core.Stats{DupDeliveries: 2} // all survived: re-acknowledged
			}
			if st.RepairsRun != want.RepairsRun || st.DupDeliveries != want.DupDeliveries {
				t.Fatalf("crash at boundary %d: redelivery ran %d repairs with %d duplicates, want %d and %d",
					keep, st.RepairsRun, st.DupDeliveries, want.RepairsRun, want.DupDeliveries)
			}
		})
	}
}

// TestSplitBatchCommitLosesCascade pins the hazard the atomic entry closes:
// with the historical split commit (the repair's entry, then standalone
// queue entries, then standalone inbox outcomes — Faults.SplitRepairCommit)
// there is a crash boundary where the frame's repairs are durable but its
// cascade and inbox outcomes are not. The redelivered cancels then re-apply
// as no-ops — the cancelled records no longer hold the calls to cascade —
// so the downstream mirror keeps the attack value forever.
func TestSplitBatchCommitLosesCascade(t *testing.T) {
	_, appended, _ := runFrameCancelCrash(t, true, 0)
	if appended < 2 {
		t.Fatalf("split frame apply appended %d entries, want >= 2 (repair, q-set)", appended)
	}
	lost := false
	for keep := uint64(0); keep <= appended; keep++ {
		cVals, _, _ := runFrameCancelCrash(t, true, keep)
		if cVals != [2]string{"good", "good"} {
			lost = true
			t.Logf("boundary %d: c left with %v", keep, cVals)
		}
	}
	if !lost {
		t.Fatal("split commit no longer loses the cascade at any crash boundary; the fault flag is not reproducing the historical behavior")
	}
}

// runSenderReconcileCrash delivers one frame of two cancels from a
// WAL-attached sender "a" to "b", crashes a at WAL entry boundary keep
// within the frame's reconcile, recovers it, and lets it flush again.
// Returns how many messages the recovered a still held, the entries the
// reconcile appended, and b's stats after the redelivery.
func runSenderReconcileCrash(t *testing.T, keep uint64) (held int, appended uint64, bst core.Stats) {
	t.Helper()
	dir := t.TempDir()
	bus := transport.NewBus()
	newA := func() *core.Controller {
		a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
		bus.Register("a", a)
		return a
	}
	a := newA()
	b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	bus.Register("b", b)
	w, err := persist.Recover(a, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	var cancels []warp.Action
	for _, k := range []string{"x", "y"} {
		bus.Call("", "a", wire.NewRequest("POST", "/put").WithForm("key", k, "val", "good"))
		attack, _ := bus.Call("", "a", wire.NewRequest("POST", "/put").WithForm("key", k, "val", "evil"))
		cancels = append(cancels, warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]})
	}
	if _, err := a.ApplyLocal(cancels...); err != nil {
		t.Fatal(err)
	}
	before := w.Seq()
	if d, _ := a.Flush(); d != 2 {
		t.Fatalf("frame delivered %d, want 2", d)
	}
	appended = w.Seq() - before
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	truncateWALAfter(t, dir, before+keep)
	a2 := newA()
	w2, err := persist.Recover(a2, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	held = a2.QueueLen()
	a2.Flush()
	if a2.QueueLen() != 0 {
		t.Fatalf("recovered sender still holds %d messages after redelivery", a2.QueueLen())
	}
	return held, appended, b.Stats()
}

// TestFrameReconcileSurvivesAnyCrashPoint sweeps every WAL entry boundary
// of a delivered frame's reconcile at the sender: the frame's outcomes are
// one entry, so a recovered sender holds either the whole frame (and its
// redelivery is re-acknowledged, never re-applied) or none of it — the
// frame never half-reconciles.
func TestFrameReconcileSurvivesAnyCrashPoint(t *testing.T) {
	_, appended, _ := runSenderReconcileCrash(t, 0)
	if appended != 1 {
		t.Fatalf("frame reconcile appended %d entries, want 1", appended)
	}
	for keep := uint64(0); keep <= appended; keep++ {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			held, _, bst := runSenderReconcileCrash(t, keep)
			wantHeld, wantDups := 2, int64(2)
			if keep == appended {
				wantHeld, wantDups = 0, 0
			}
			if held != wantHeld || bst.RepairsRun != 1 || bst.DupDeliveries != wantDups {
				t.Fatalf("crash at boundary %d: sender held %d (want %d); receiver ran %d repairs with %d duplicates (want 1 and %d)",
					keep, held, wantHeld, bst.RepairsRun, bst.DupDeliveries, wantDups)
			}
		})
	}
}
