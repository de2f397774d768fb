package persist_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aire/internal/core"
	"aire/internal/orm"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/wal/waltest"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// clearApp is a key-value service whose /clear reads a guard key, deletes
// its key and reads that key back.
type clearApp struct{}

func (clearApp) Name() string                     { return "t" }
func (clearApp) Authorize(core.AuthzRequest) bool { return true }

func (clearApp) Register(svc *web.Service) {
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/put", func(c *web.Ctx) wire.Response {
		if err := c.DB.Put("kv", c.Form("key"), orm.Fields("val", c.Form("val"))); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK("ok")
	})
	svc.Router.Handle("POST", "/clear", func(c *web.Ctx) wire.Response {
		guard, _ := c.DB.Get("kv", c.Form("guard"))
		if err := c.DB.Delete("kv", c.Form("key")); err != nil {
			return c.Error(500, err.Error())
		}
		if _, ok := c.DB.Get("kv", c.Form("key")); ok {
			return c.Error(500, "still there")
		}
		return c.OK(guard.Get("val"))
	})
}

// clearRequests is the fixture's traffic: a guard g, keys x and y, and a
// /clear of each key that reads g.
var clearRequests = []wire.Request{
	wire.NewRequest("POST", "/put").WithForm("key", "g", "val", "1"),
	wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "a"),
	wire.NewRequest("POST", "/clear").WithForm("key", "x", "guard", "g"),
	wire.NewRequest("POST", "/put").WithForm("key", "y", "val", "b"),
	wire.NewRequest("POST", "/clear").WithForm("key", "y", "guard", "g"),
}

// What a binary that logged a read of the request's own delete wrote for
// clearRequests: a version-1 checkpoint covering WAL entries 1–4 (the
// first four requests), then entry 5, the clear of y, in a version-1
// segment. Each clear logged its read of the key it had just deleted as a
// miss ({"ts":0,"hash":0}), t-req-3 in the checkpoint and t-req-5 in the
// WAL tail.
const (
	ownTombstoneCheckpoint = `{"up_to_seq":4,"snapshot":{"service":"t","clock_now":4194304,"id_counter":4,"records":[` +
		`{"id":"t-req-1","ts":1048576,"req":{"method":"POST","path":"/put","form":{"key":"g","val":"1"}},"resp":{"status":200,"header":{"Aire-Request-Id":"t-req-1"},"body":"b2s="},"writes":[{"key":{"Model":"kv","ID":"g"},"ts":1048576}]},` +
		`{"id":"t-req-2","ts":2097152,"req":{"method":"POST","path":"/put","form":{"key":"x","val":"a"}},"resp":{"status":200,"header":{"Aire-Request-Id":"t-req-2"},"body":"b2s="},"writes":[{"key":{"Model":"kv","ID":"x"},"ts":2097152}]},` +
		`{"id":"t-req-3","ts":3145728,"req":{"method":"POST","path":"/clear","form":{"guard":"g","key":"x"}},"resp":{"status":200,"header":{"Aire-Request-Id":"t-req-3"},"body":"MQ=="},"reads":[{"key":{"Model":"kv","ID":"g"},"ts":1048576,"hash":12582037900484441050},{"key":{"Model":"kv","ID":"x"},"ts":0,"hash":0}],"writes":[{"key":{"Model":"kv","ID":"x"},"ts":3145728}]},` +
		`{"id":"t-req-4","ts":4194304,"req":{"method":"POST","path":"/put","form":{"key":"y","val":"b"}},"resp":{"status":200,"header":{"Aire-Request-Id":"t-req-4"},"body":"b2s="},"writes":[{"key":{"Model":"kv","ID":"y"},"ts":4194304}]}],` +
		`"objects":[{"key":{"Model":"kv","ID":"g"},"versions":[{"TS":1048576,"ReqID":"t-req-1","Deleted":false,"Immutable":false,"Fields":{"val":"1"}}]},` +
		`{"key":{"Model":"kv","ID":"x"},"versions":[{"TS":2097152,"ReqID":"t-req-2","Deleted":false,"Immutable":false,"Fields":{"val":"a"}},{"TS":3145728,"ReqID":"t-req-3","Deleted":true,"Immutable":false,"Fields":{}}]},` +
		`{"key":{"Model":"kv","ID":"y"},"versions":[{"TS":4194304,"ReqID":"t-req-4","Deleted":false,"Immutable":false,"Fields":{"val":"b"}}]}]}}`
	ownTombstoneTailOps = `[{"kind":"vdb","data":{"kind":"put","key":{"Model":"kv","ID":"y"},"version":{"TS":5242880,"ReqID":"t-req-5","Deleted":true,"Immutable":false,"Fields":null}}},` +
		`{"kind":"log","data":{"kind":"append","record":{"id":"t-req-5","ts":5242880,"req":{"method":"POST","path":"/clear","form":{"guard":"g","key":"y"}},"resp":{"status":200,"header":{"Aire-Request-Id":"t-req-5"},"body":"MQ=="},` +
		`"reads":[{"key":{"Model":"kv","ID":"g"},"ts":1048576,"hash":12582037900484441050},{"key":{"Model":"kv","ID":"y"},"ts":0,"hash":0}],"writes":[{"key":{"Model":"kv","ID":"y"},"ts":5242880}]}}}]`
)

// writeOwnTombstoneState lays the fixture out in a fresh directory.
func writeOwnTombstoneState(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(4)), []byte(ownTombstoneCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	var entries []wal.Entry
	for i := 1; i <= 4; i++ {
		entries = append(entries, wal.Entry{Seq: uint64(i), Kind: "pad"})
	}
	var ops []struct {
		Kind string
		Data json.RawMessage
	}
	if err := json.Unmarshal([]byte(ownTombstoneTailOps), &ops); err != nil {
		t.Fatal(err)
	}
	tail := wal.Entry{Seq: 5, Kind: "exec", Clock: 5242880, IDs: 5}
	for _, op := range ops {
		tail.Ops = append(tail.Ops, wal.Op{Kind: op.Kind, Data: op.Data})
	}
	if err := waltest.WriteJSONSegment(dir, 1, append(entries, tail)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOwnTombstoneReadUpgrades: the clears logged before reads of a
// request's own delete stopped being logged, one in the checkpoint and
// one in the WAL tail, recover as the same requests log today: without
// the miss. A repair that reaches both then repairs the recovered service
// exactly as it repairs the requests freshly executed, compared as warp's
// indexed walk is compared with its reference (every Result field but
// Examined and the timings, every log record, every stored version): a
// replace of the guard's write with its own content re-executes that
// write alone. With the miss kept, the reached clears re-execute on every
// such repair, since the miss is compared with the version before the
// clear's own delete.
func TestOwnTombstoneReadUpgrades(t *testing.T) {
	upgraded := core.NewController(clearApp{}, transport.NewBus(), core.DefaultConfig())
	w, err := persist.Recover(upgraded, writeOwnTombstoneState(t), wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// The same requests logged today, checkpointed at the same point and
	// recovered, so both services load their records the same way.
	bus := transport.NewBus()
	live := core.NewController(clearApp{}, bus, core.DefaultConfig())
	bus.Register("t", live)
	dir := t.TempDir()
	lw, err := persist.Recover(live, dir, wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range clearRequests {
		if resp, err := bus.Call("", "t", req); err != nil || !resp.OK() {
			t.Fatalf("%s: %v %+v", req.Path, err, resp)
		}
		if i == 3 {
			if _, err := persist.CheckpointAndTruncate(live, lw, dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	live.DetachWAL()
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := core.NewController(clearApp{}, transport.NewBus(), core.DefaultConfig())
	fw, err := persist.Recover(fresh, dir, wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	repair := warp.Action{Kind: warp.ReplaceReq, ReqID: "t-req-1", NewReq: clearRequests[0]}
	var results [2]warp.Result
	for i, c := range []*core.Controller{upgraded, fresh} {
		res, err := c.ApplyLocal(repair)
		if err != nil {
			t.Fatal(err)
		}
		if res.Examined != 3 {
			t.Fatalf("the repair examined %d records, want the replaced write and both clears", res.Examined)
		}
		results[i] = *res
		results[i].Examined, results[i].Duration, results[i].PhaseDurations = 0, 0, [4]time.Duration{}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("results diverged:\n  upgraded: %+v\n  fresh:    %+v", results[0], results[1])
	}
	if results[1].RepairedRequests != 1 {
		t.Fatalf("the fresh repair re-executed %d requests, want the replaced one alone", results[1].RepairedRequests)
	}
	lu, lf := upgraded.Svc.Log.All(), fresh.Svc.Log.All()
	if len(lu) != len(lf) {
		t.Fatalf("log sizes diverged: %d vs %d", len(lu), len(lf))
	}
	for i := range lu {
		if !reflect.DeepEqual(lu[i], lf[i]) {
			t.Errorf("record %d diverged:\n  upgraded: %+v\n  fresh:    %+v", i, lu[i], lf[i])
		}
	}
	if du, df := upgraded.Svc.Store.Dump(), fresh.Svc.Store.Dump(); !reflect.DeepEqual(du, df) {
		t.Errorf("stores diverged:\n  upgraded: %+v\n  fresh:    %+v", du, df)
	}
}
