package core

import (
	"reflect"
	"testing"

	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// TestUntrustedVectorHeadersRefused: the version-vector announcement is
// outside input that dedup classification rests on, so a carrier whose
// announcement is malformed, inconsistent (acked > frontier), or missing
// although its delivery ID carries a sequence is refused with 400 before
// anything is observed or persisted — no WAL entry at all (in particular
// no in-vv), dedup inbox and repair log untouched.
func TestUntrustedVectorHeadersRefused(t *testing.T) {
	tb := newTestbed()
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())
	w, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b.AttachWAL(w)

	create := func(deliveryID string) wire.Request {
		return carrier(warp.OutCreate, "",
			wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v"), "a", deliveryID, 0)
	}
	// Baseline: a well-formed delivery applies, advances the vector, and
	// leaves something in the inbox for the bad carriers to not disturb.
	if resp, err := tb.bus.Call("a", "b", create("a-dlv-1")); err != nil || !resp.OK() {
		t.Fatalf("well-formed create: %v %+v", err, resp)
	}
	wantSeq, wantInbox, wantLog := w.Seq(), b.ExportAtomic().Inbox, b.Svc.Log.Len()

	cases := []struct {
		name            string
		acked, frontier string // "" deletes the header
	}{
		{"garbage acked", "abc", "2"},
		{"garbage frontier", "1", "0x2"},
		{"negative acked", "-1", "2"},
		{"overflowing frontier", "1", "18446744073709551616"},
		{"acked beyond frontier", "7", "2"},
		{"acked without frontier", "1", ""},
		{"frontier without acked", "", "2"},
		{"no announcement on an identified carrier", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := create("a-dlv-2")
			for hdr, v := range map[string]string{wire.HdrAckedSeq: tc.acked, wire.HdrFrontierSeq: tc.frontier} {
				if v == "" {
					delete(req.Header, hdr)
				} else {
					req.Header[hdr] = v
				}
			}
			resp, err := tb.bus.Call("a", "b", req)
			if err != nil || resp.Status != 400 {
				t.Fatalf("status %d (err %v), want 400: %s", resp.Status, err, resp.Body)
			}
			if got := w.Seq(); got != wantSeq {
				t.Fatalf("refused carrier appended %d WAL entries", got-wantSeq)
			}
			if got := b.ExportAtomic().Inbox; !reflect.DeepEqual(got, wantInbox) {
				t.Fatalf("refused carrier changed the dedup inbox:\n got %+v\nwant %+v", got, wantInbox)
			}
			if got := b.Svc.Log.Len(); got != wantLog {
				t.Fatalf("refused carrier grew the repair log %d -> %d", wantLog, got)
			}
		})
	}

	// The same delivery, announced properly, still applies afterwards.
	if resp, err := tb.bus.Call("a", "b", create("a-dlv-2")); err != nil || !resp.OK() {
		t.Fatalf("well-formed delivery after the refusals: %v %+v", err, resp)
	}
}
