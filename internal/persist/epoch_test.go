package persist_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// Durable state written before the dedup inbox's digest epoch (ISSUE 13:
// version vectors became the only inbox; the eviction watermark and the
// never-applied holes left deliver.OriginDump). The literals below are what
// the pre-epoch binary checkpointed for service "b" after applying one
// cancel repair delivered by "a" as a-dlv-6: preEpochCheckpoint with the
// inbox under its capacity (no eviction ever happened — the common case at
// the old default cap of 4096), preEpochInboxEvicted the same origin after
// evictions.
const (
	preEpochCheckpoint = `{"up_to_seq":0,"snapshot":{"service":"b","clock_now":2097152,"id_counter":2,` +
		`"records":[` +
		`{"id":"b-req-1","ts":1048576,"from":"a","client_resp_id":"a-resp-2","notifier_url":"aire://a/aire/notify",` +
		`"req":{"method":"POST","path":"/put","header":{"Aire-Notifier-URL":"aire://a/aire/notify","Aire-Response-Id":"a-resp-2"},"form":{"key":"x","val":"good"}},` +
		`"resp":{"status":200,"header":{"Aire-Request-Id":"b-req-1"},"body":"b2s="},"writes":[{"key":{"Model":"kv","ID":"x"},"ts":1048576}]},` +
		`{"id":"b-req-2","ts":2097152,"from":"a","client_resp_id":"a-resp-4","notifier_url":"aire://a/aire/notify",` +
		`"req":{"method":"POST","path":"/put","header":{"Aire-Notifier-URL":"aire://a/aire/notify","Aire-Response-Id":"a-resp-4"},"form":{"key":"x","val":"evil"}},` +
		`"resp":{"status":410,"body":"cmVxdWVzdCBjYW5jZWxsZWQgYnkgcmVwYWly"},"skipped":true,"repair_gen":1}],` +
		`"objects":[{"key":{"Model":"kv","ID":"x"},"versions":[{"TS":1048576,"ReqID":"b-req-1","Deleted":false,"Immutable":false,"Fields":{"val":"good"}}]}],` +
		`"inbox":[` + preEpochInbox + `]}}`
	preEpochInbox        = `{"origin":"a","entries":[{"id":"a-dlv-6","gen":0,"ts":2097152}],"max_seen":6}`
	preEpochInboxEvicted = `{"origin":"a","watermark":5,"entries":[{"id":"a-dlv-6","gen":0,"ts":2097152}],"holes":[3],"max_seen":6}`
)

// TestPreEpochStateLoadsOrIsRefused: a pre-epoch checkpoint that never
// evicted still loads — and still deduplicates the delivery it remembers —
// while one carrying a watermark or holes is refused with an error naming
// the field, never silently downgraded to a smaller dedup memory.
func TestPreEpochStateLoadsOrIsRefused(t *testing.T) {
	evicted := strings.Replace(preEpochCheckpoint, preEpochInbox, preEpochInboxEvicted, 1)
	holesOnly := strings.Replace(evicted, `"watermark":5,`, "", 1)
	write := func(checkpoint string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(0)), []byte(checkpoint), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	newB := func() (*transport.Bus, *core.Controller) {
		bus := transport.NewBus()
		b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
		bus.Register("b", b)
		return bus, b
	}
	// The sender's redelivery of the remembered repair.
	redeliver := func(bus *transport.Bus) wire.Response {
		req := wire.NewRequest("POST", "/aire/repair").WithHeader(
			wire.HdrRepair, string(warp.OutDelete), wire.HdrRequestID, "b-req-2",
			wire.HdrDeliveryID, "a-dlv-6", wire.HdrGeneration, "0", wire.HdrOrigin, "a",
			wire.HdrAckedSeq, "5", wire.HdrFrontierSeq, "6")
		resp, err := bus.Call("a", "b", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("LatestCheckpoint", func(t *testing.T) {
		cp, err := persist.LatestCheckpoint(write(preEpochCheckpoint))
		if err != nil {
			t.Fatalf("pre-epoch checkpoint without eviction state must load: %v", err)
		}
		bus, b := newB()
		if err := persist.Apply(b, cp.Snap); err != nil {
			t.Fatal(err)
		}
		if resp := redeliver(bus); !resp.OK() || b.Stats().DupDeliveries != 1 {
			t.Fatalf("restored pre-epoch inbox did not deduplicate a-dlv-6: %+v (dups=%d)", resp, b.Stats().DupDeliveries)
		}
		for field, checkpoint := range map[string]string{"watermark": evicted, "holes": holesOnly} {
			if _, err := persist.LatestCheckpoint(write(checkpoint)); err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
				t.Fatalf("pre-epoch checkpoint with %s: err = %v, want a refusal naming the field", field, err)
			}
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		bus, b := newB()
		w, err := persist.Recover(b, write(preEpochCheckpoint), wal.Options{Policy: wal.FsyncEveryCommit})
		if err != nil {
			t.Fatalf("pre-epoch checkpoint without eviction state must recover: %v", err)
		}
		defer w.Close()
		if resp := redeliver(bus); !resp.OK() || b.Stats().DupDeliveries != 1 {
			t.Fatalf("recovered pre-epoch inbox did not deduplicate a-dlv-6: %+v (dups=%d)", resp, b.Stats().DupDeliveries)
		}
		_, b2 := newB()
		if _, err := persist.Recover(b2, write(evicted), wal.Options{Policy: wal.FsyncEveryCommit}); err == nil || !strings.Contains(err.Error(), `"watermark"`) {
			t.Fatalf("pre-epoch checkpoint with a watermark: err = %v, want recovery refused naming the field", err)
		}
	})
}

// TestBatchEpochStateRefused: state written while the incoming-batch mode
// existed is refused loudly, never silently dropped: a checkpoint carrying
// an accepted batch fails to load with an error naming the field, and a WAL
// holding one of its ops fails recovery. So does a WAL holding a retired
// q-claim (an in-memory lease) or in-rollback (an inbox reservation's
// release): no current binary writes either.
func TestBatchEpochStateRefused(t *testing.T) {
	dir := t.TempDir()
	withBatch := strings.Replace(preEpochCheckpoint, `"inbox":[`, `"batch":[{"seq":1,"action":{}}],"inbox":[`, 1)
	if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(0)), []byte(withBatch), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.LatestCheckpoint(dir); err == nil || !strings.Contains(err.Error(), `"batch"`) {
		t.Fatalf("checkpoint with an accepted batch: err = %v, want a refusal naming the field", err)
	}
	for _, kind := range []string{"batch-accept", "batch-drain", "q-claim", "in-rollback"} {
		dir := t.TempDir()
		w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncEveryCommit})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append("batch", 1, 1, []wal.Op{{Kind: kind, Data: []byte(`{"up_to_seq":1}`)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b := core.NewController(&harness.KVApp{ServiceName: "b"}, transport.NewBus(), core.DefaultConfig())
		if err := persist.Load(b, dir); err == nil || !strings.Contains(err.Error(), "unknown wal op kind") {
			t.Fatalf("WAL with a %s op: err = %v, want recovery refused", kind, err)
		}
	}
}
