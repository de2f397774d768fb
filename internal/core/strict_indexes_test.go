package core

import (
	"strings"
	"testing"

	"aire/internal/vdb"
	"aire/internal/warp"
	"aire/internal/wire"
)

// addStrict adds a kv service with the StrictIndexes hook installed.
func addStrict(tb *testbed) *Controller {
	c := tb.add(&kvApp{name: "store"}, DefaultConfig())
	c.InjectFaults(Faults{StrictIndexes: true})
	return c
}

// With coherent indexes the guard is invisible: repair runs normally.
func TestStrictIndexesPassesOnHealthyState(t *testing.T) {
	tb := newTestbed()
	c := addStrict(tb)
	tb.call("store", put("x", "good"))
	attack := tb.call("store", put("x", "evil"))
	if _, err := c.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatalf("repair with coherent indexes failed: %v", err)
	}
	if got := string(tb.call("store", get("x")).Body); got != "good" {
		t.Fatalf("after repair x = %q, want good", got)
	}
}

// A drifted store index fails the wave loudly before any record is touched.
func TestStrictIndexesGuardFiresOnStoreCorruption(t *testing.T) {
	tb := newTestbed()
	c := addStrict(tb)
	tb.call("store", put("x", "good"))
	attack := tb.call("store", put("x", "evil"))

	c.Svc.Store.CorruptScanFPForTest("kv")
	_, err := c.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]})
	if err == nil {
		t.Fatal("repair ran over a corrupted store index")
	}
	if !strings.Contains(err.Error(), "store index incoherent") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The refused wave must not have mutated anything: the attack value is
	// still in place.
	if got := string(tb.call("store", get("x")).Body); got != "evil" {
		t.Fatalf("refused repair still changed state: x = %q", got)
	}
}

// A drifted repair-log index fails the wave the same way.
func TestStrictIndexesGuardFiresOnLogCorruption(t *testing.T) {
	tb := newTestbed()
	c := addStrict(tb)
	tb.call("store", put("x", "good"))
	attack := tb.call("store", put("x", "evil"))

	c.Svc.Log.CorruptRespIndexForTest()
	_, err := c.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]})
	if err == nil {
		t.Fatal("repair ran over a corrupted repair-log index")
	}
	if !strings.Contains(err.Error(), "repair-log index incoherent") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// An incoming frame's apply runs the same guard: every carrier is refused
// (and may be redelivered), and nothing is applied.
func TestStrictIndexesGuardFiresOnFrameApply(t *testing.T) {
	tb := newTestbed()
	c := addStrict(tb)
	tb.call("store", put("x", "good"))
	attack := tb.call("store", put("x", "evil"))

	c.Svc.Store.DropIndexEntryForTest(vdb.Key{Model: "kv", ID: "x"})
	del := carrier(warp.OutDelete, attack.Header[wire.HdrRequestID], wire.Request{}, "a", "a-dlv-1", 0)
	resp := frameReply(t, tb, "store", frameOf("a", del), 1)[0]
	if resp.Status != 400 || !strings.Contains(string(resp.Body), "store index incoherent") {
		t.Fatalf("frame applied over a corrupted store index: %d %s", resp.Status, resp.Body)
	}
	if got := string(tb.call("store", get("x")).Body); got != "evil" {
		t.Fatalf("refused frame still changed state: x = %q", got)
	}
}

// Off by default (the zero Faults): the same corruption goes unnoticed
// without StrictIndexes,
// proving the guard (not some other path) is what fires above.
func TestStrictIndexesOffByDefault(t *testing.T) {
	tb := newTestbed()
	c := tb.add(&kvApp{name: "store"}, DefaultConfig())
	tb.call("store", put("x", "good"))
	attack := tb.call("store", put("x", "evil"))

	c.Svc.Store.CorruptScanFPForTest("never-scanned-model")
	if _, err := c.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatalf("guard fired with StrictIndexes off: %v", err)
	}
}
