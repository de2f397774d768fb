package persist_test

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/wal/waltest"
	"aire/internal/wire"
)

// Durable state written while a queued message had two names: a MsgID
// minted from its own counter beside the delivery ID. The literals are what
// that binary wrote for service "a", which mirrors every put to "b" and
// "c". Two puts were each mirrored to both peers. With b offline and c
// refusing every frame, cancelling the first put queued a-msg-1 (b) and
// a-msg-2 (c), and three flushes parked a-msg-2. A checkpoint then covered
// WAL entries 1–9 (legacyQueueCheckpoint: both messages, each with its
// MsgID, and the MsgID counter as "next_id"). The WAL tail holds the
// second put's cancel, which queued a-msg-3 (b) and a-msg-4 (c) as q-sets
// carrying "next_id"; a Retry of a-msg-3 with fresh headers (generation
// 1); and a Drop of a-msg-1, a q-del naming it by "msg_id".
const legacyQueueCheckpoint = `{"up_to_seq":9,"snapshot":{"service":"a","clock_now":2097152,"id_counter":9,` +
	`"records":[{"id":"a-req-1","ts":1048576,"req":{"method":"POST","path":"/put","form":{"key":"x","val":"evil"}},"resp":{"status":410,"body":"cmVxdWVzdCBjYW5jZWxsZWQgYnkgcmVwYWly"},"skipped":true,"repair_gen":1},` +
	`{"id":"a-req-4","ts":2097152,"req":{"method":"POST","path":"/put","form":{"key":"y","val":"evil"}},"resp":{"status":200,"header":{"Aire-Request-Id":"a-req-4"},"body":"b2s="},"writes":[{"key":{"Model":"kv","ID":"y"},"ts":2097152}],"calls":[{"seq":0,"target":"b","resp_id":"a-resp-5","remote_req_id":"b-req-2","req":{"method":"POST","path":"/put","form":{"key":"y","val":"evil"}},"resp":{"status":200,"header":{"Aire-Request-Id":"b-req-2"},"body":"b2s="}},{"seq":1,"target":"c","resp_id":"a-resp-6","remote_req_id":"c-req-2","req":{"method":"POST","path":"/put","form":{"key":"y","val":"evil"}},"resp":{"status":200,"header":{"Aire-Request-Id":"c-req-2"},"body":"b2s="}}]}],` +
	`"objects":[{"key":{"Model":"kv","ID":"y"},"versions":[{"TS":2097152,"ReqID":"a-req-4","Deleted":false,"Immutable":false,"Fields":{"val":"evil"}}]}],` +
	`"queue":[{"MsgID":"a-msg-1","delivery_id":"a-dlv-8","Msg":{"Kind":"delete","Target":"b","RemoteReqID":"b-req-1","Req":{"method":"POST","path":"/put","form":{"key":"x","val":"evil"}},"RespID":"","BeforeID":"","AfterID":"","Resp":{"status":0},"NotifierURL":"","LocalReqID":"","CallRespID":""},"Attempts":0,"Held":false,"LastErr":"transport: service unavailable: b is offline","trace_id":"a-wave-7","trace_hop":1},` +
	`{"MsgID":"a-msg-2","delivery_id":"a-dlv-9","Msg":{"Kind":"delete","Target":"c","RemoteReqID":"c-req-1","Req":{"method":"POST","path":"/put","form":{"key":"x","val":"evil"}},"RespID":"","BeforeID":"","AfterID":"","Resp":{"status":0},"NotifierURL":"","LocalReqID":"","CallRespID":""},"Attempts":3,"Held":true,"LastErr":"peer returned 500: refused","trace_id":"a-wave-7","trace_hop":1}],"next_id":2}}`

// legacyQueueTail is that WAL tail: entries 10–12, each written at clock
// 2097152 with ID counter 12.
var legacyQueueTail = []struct{ kind, ops string }{
	{"repair", `[{"kind":"vdb","data":{"kind":"rollback","key":{"Model":"kv","ID":"y"},"ts":2097151}},` +
		`{"kind":"log","data":{"kind":"update","record":{"id":"a-req-4","ts":2097152,"req":{"method":"POST","path":"/put","form":{"key":"y","val":"evil"}},"resp":{"status":410,"body":"cmVxdWVzdCBjYW5jZWxsZWQgYnkgcmVwYWly"},"skipped":true,"repair_gen":1}}},` +
		`{"kind":"q-set","data":{"msg":{"MsgID":"a-msg-3","delivery_id":"a-dlv-11","Msg":{"Kind":"delete","Target":"b","RemoteReqID":"b-req-2","Req":{"method":"POST","path":"/put","form":{"key":"y","val":"evil"}},"RespID":"","BeforeID":"","AfterID":"","Resp":{"status":0},"NotifierURL":"","LocalReqID":"","CallRespID":""},"Attempts":0,"Held":false,"LastErr":"","trace_id":"a-wave-10","trace_hop":1},"next_id":3}},` +
		`{"kind":"q-set","data":{"msg":{"MsgID":"a-msg-4","delivery_id":"a-dlv-12","Msg":{"Kind":"delete","Target":"c","RemoteReqID":"c-req-2","Req":{"method":"POST","path":"/put","form":{"key":"y","val":"evil"}},"RespID":"","BeforeID":"","AfterID":"","Resp":{"status":0},"NotifierURL":"","LocalReqID":"","CallRespID":""},"Attempts":0,"Held":false,"LastErr":"","trace_id":"a-wave-10","trace_hop":1},"next_id":4}}]`},
	{"queue", `[{"kind":"q-set","data":{"msg":{"MsgID":"a-msg-3","delivery_id":"a-dlv-11","Msg":{"Kind":"delete","Target":"b","RemoteReqID":"b-req-2","Req":{"method":"POST","path":"/put","header":{"X-Token":"t2"},"form":{"key":"y","val":"evil"}},"RespID":"","BeforeID":"","AfterID":"","Resp":{"status":0},"NotifierURL":"","LocalReqID":"","CallRespID":""},"Attempts":0,"Held":false,"LastErr":"","gen":1,"trace_id":"a-wave-10","trace_hop":1},"next_id":4}}]`},
	{"queue", `[{"kind":"q-del","data":{"msg_id":"a-msg-1"}}]`},
}

// writeLegacyQueueState lays checkpoint and legacyQueueTail out in a fresh
// directory, the WAL as the version-1 segment that binary wrote; tail,
// when given, replaces the tail entries' ops in order. Entries 1–9, which
// the checkpoint covers, are padding that replay skips.
func writeLegacyQueueState(t *testing.T, checkpoint string, tail ...string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(9)), []byte(checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	var entries []wal.Entry
	for i := 0; i < 9; i++ {
		entries = append(entries, wal.Entry{Seq: uint64(i + 1), Kind: "pad"})
	}
	for i, e := range legacyQueueTail {
		ops := e.ops
		if i < len(tail) {
			ops = tail[i]
		}
		var decoded []struct {
			Kind string
			Data json.RawMessage
		}
		if err := json.Unmarshal([]byte(ops), &decoded); err != nil {
			t.Fatal(err)
		}
		entry := wal.Entry{Seq: uint64(len(entries) + 1), Kind: e.kind, Clock: 2097152, IDs: 12}
		for _, op := range decoded {
			entry.Ops = append(entry.Ops, wal.Op{Kind: op.Kind, Data: op.Data})
		}
		entries = append(entries, entry)
	}
	if err := waltest.WriteJSONSegment(dir, 1, entries); err != nil {
		t.Fatal(err)
	}
	return dir
}

// deliveryCounter is a peer that acknowledges every carrier and counts
// each delivery ID it receives.
type deliveryCounter struct {
	mu   sync.Mutex
	seen map[string]int
}

func (p *deliveryCounter) HandleWire(from string, req wire.Request) wire.Response {
	return wire.HandleFrame(req, func(c wire.Request) wire.Response {
		p.mu.Lock()
		p.seen[c.Header[wire.HdrDeliveryID]]++
		p.mu.Unlock()
		return wire.NewResponse(200, "ok")
	})
}

func (p *deliveryCounter) counts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.seen)
}

// TestLegacyQueueStateRecovers: state written while queued messages had a
// second name recovers to the same queue, named by delivery ID alone. The
// old q-del finds the message it names through the MsgID the checkpoint
// recorded, "next_id" is read and ignored, and every surviving message is
// delivered exactly once: the two live ones at the first flush, the
// parked one after a Retry by its delivery ID. The dropped message never
// goes out, and a second recovery, from the old state plus what this
// binary appended, finds the queue empty. A q-del that names no message, a
// q-set whose delivery ID shares a queued message's sequence under another
// name, and a checkpoint key that is neither current nor retired (beside
// the queue or inside one of its entries), are refused.
func TestLegacyQueueStateRecovers(t *testing.T) {
	dir := writeLegacyQueueState(t, legacyQueueCheckpoint)
	bus := transport.NewBus()
	newA := func() *core.Controller {
		a := core.NewController(&harness.KVApp{ServiceName: "a", Mirrors: []string{"b", "c"}}, bus, core.DefaultConfig())
		bus.Register("a", a)
		return a
	}
	peers := map[string]*deliveryCounter{"b": {seen: map[string]int{}}, "c": {seen: map[string]int{}}}
	for name, p := range peers {
		bus.Register(name, p)
	}
	opts := wal.Options{Policy: wal.FsyncEveryCommit}
	a := newA()
	w, err := persist.Recover(a, dir, opts)
	if err != nil {
		t.Fatalf("legacy queue state must recover: %v", err)
	}

	type view struct {
		ID, Target string
		Held       bool
		Gen        uint64
	}
	var got []view
	for _, p := range a.Pending() {
		got = append(got, view{p.DeliveryID, p.Msg.Target, p.Held, p.Gen})
	}
	want := []view{{"a-dlv-9", "c", true, 0}, {"a-dlv-11", "b", false, 1}, {"a-dlv-12", "c", false, 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("recovered queue %+v, want %+v", got, want)
	}

	deliveries := func() map[string]int {
		out := map[string]int{}
		for name, p := range peers {
			for id, n := range p.counts() {
				out[name+":"+id] = n
			}
		}
		return out
	}
	if _, left := a.Flush(); left != 1 {
		t.Fatalf("after the first flush %d messages queued, want the parked one", left)
	}
	if err := a.Retry("a-dlv-9", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, left := a.Flush(); left != 0 {
			t.Fatalf("%d messages left after the retried flush", left)
		}
	}
	wantDeliveries := map[string]int{"b:a-dlv-11": 1, "c:a-dlv-12": 1, "c:a-dlv-9": 1}
	if got := deliveries(); !maps.Equal(got, wantDeliveries) {
		t.Fatalf("deliveries %v, want %v", got, wantDeliveries)
	}

	a.DetachWAL()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again := newA()
	w2, err := persist.Recover(again, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if n := again.QueueLen(); n != 0 {
		t.Fatalf("second recovery queued %d messages, want 0", n)
	}

	nameless := strings.Replace(legacyQueueTail[2].ops, `"msg_id":"a-msg-1"`, "", 1)
	if err := persist.Load(newA(), writeLegacyQueueState(t, legacyQueueCheckpoint, legacyQueueTail[0].ops, legacyQueueTail[1].ops, nameless)); err == nil || !strings.Contains(err.Error(), "q-del names no message") {
		t.Fatalf("q-del naming no message: err = %v, want recovery refused", err)
	}
	twin := strings.Replace(legacyQueueTail[0].ops, `"delivery_id":"a-dlv-12"`, `"delivery_id":"a-zz-11"`, 1)
	if err := persist.Load(newA(), writeLegacyQueueState(t, legacyQueueCheckpoint, twin)); err == nil || !strings.Contains(err.Error(), "not a delivery ID of a") {
		t.Fatalf("q-set sharing a-dlv-11's sequence under another name: err = %v, want recovery refused", err)
	}
	for _, unknown := range []struct{ key, checkpoint string }{
		{`"msg_counter"`, strings.Replace(legacyQueueCheckpoint, `"next_id":2`, `"next_id":2,"msg_counter":2`, 1)},
		{`"msg_seq"`, strings.Replace(legacyQueueCheckpoint, `"MsgID":"a-msg-2",`, `"MsgID":"a-msg-2","msg_seq":2,`, 1)},
	} {
		if _, err := persist.LatestCheckpoint(writeLegacyQueueState(t, unknown.checkpoint)); err == nil || !strings.Contains(err.Error(), unknown.key) {
			t.Fatalf("checkpoint with an unknown key %s: err = %v, want a refusal naming it", unknown.key, err)
		}
	}
}
