package persist_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aire/internal/apps/dpaste"
	"aire/internal/core"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// preDedupCheckpoint is what a binary that logged every read, repeats
// included, checkpointed for a pastebin after a paste and two downloads of
// it. A download reads the snippet and then updates it, which reads it
// again, so dpaste-req-2 and dpaste-req-3 each name the snippet twice.
const preDedupCheckpoint = `{"up_to_seq":0,"snapshot":{"service":"dpaste","clock_now":3145728,"id_counter":3,"records":[{"id":"dpaste-req-1","ts":1048576,"req":{"method":"POST","path":"/paste","form":{"author":"alice","code":"print(1)"}},"resp":{"status":200,"header":{"Aire-Request-Id":"dpaste-req-1"},"body":"cGFzdGUtZHBhc3RlLXJlcS0xLjA="},"writes":[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"ts":1048576}]},` +
	`{"id":"dpaste-req-2","ts":2097152,"req":{"method":"GET","path":"/download","form":{"id":"paste-dpaste-req-1.0"}},"resp":{"status":200,"header":{"Aire-Request-Id":"dpaste-req-2"},"body":"cHJpbnQoMSk="},"reads":[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"ts":1048576,"hash":13392781185470822990},{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"ts":1048576,"hash":13392781185470822990}],"writes":[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"ts":2097152}]},` +
	`{"id":"dpaste-req-3","ts":3145728,"req":{"method":"GET","path":"/download","form":{"id":"paste-dpaste-req-1.0"}},"resp":{"status":200,"header":{"Aire-Request-Id":"dpaste-req-3"},"body":"cHJpbnQoMSk="},"reads":[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"ts":2097152,"hash":13391826809377725067},{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"ts":2097152,"hash":13391826809377725067}],"writes":[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"ts":3145728}]}],` +
	`"objects":[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"versions":[{"TS":1048576,"ReqID":"dpaste-req-1","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(1)","downloads":"0"}},{"TS":2097152,"ReqID":"dpaste-req-2","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(1)","downloads":"1"}},{"TS":3145728,"ReqID":"dpaste-req-3","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(1)","downloads":"2"}}]}]}}`

// The same binary's repairs of that checkpoint: what each left in the log
// and the store, and the counts it reported.
const (
	preDedupCancelState = `dpaste-req-1 skipped=false gen=0 200 "paste-dpaste-req-1.0"
dpaste-req-2 skipped=true gen=1 410 "request cancelled by repair"
dpaste-req-3 skipped=false gen=1 200 "print(1)"
[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"versions":[{"TS":1048576,"ReqID":"dpaste-req-1","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(1)","downloads":"0"}},{"TS":3145728,"ReqID":"dpaste-req-3","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(1)","downloads":"1"}}]}]`
	preDedupReplaceState = `dpaste-req-1 skipped=false gen=1 200 "paste-dpaste-req-1.0"
dpaste-req-2 skipped=false gen=1 200 "print(2)"
dpaste-req-3 skipped=false gen=1 200 "print(2)"
[{"key":{"Model":"snippet","ID":"paste-dpaste-req-1.0"},"versions":[{"TS":1048576,"ReqID":"dpaste-req-1","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(2)","downloads":"0"}},{"TS":2097152,"ReqID":"dpaste-req-2","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(2)","downloads":"1"}},{"TS":3145728,"ReqID":"dpaste-req-3","Deleted":false,"Immutable":false,"Fields":{"author":"alice","code":"print(2)","downloads":"2"}}]}]`
)

// dedupFixtureState renders what a repair of the fixture leaves behind:
// every record's outcome and the store's contents.
func dedupFixtureState(t *testing.T, c *core.Controller) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range c.Svc.Log.All() {
		fmt.Fprintf(&sb, "%s skipped=%v gen=%d %d %q\n", r.ID, r.Skipped, r.RepairGen, r.Resp.Status, r.Resp.Body)
	}
	dump, err := json.Marshal(c.Svc.Store.Dump())
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(dump)
	return sb.String()
}

// TestPreDedupCheckpointRepairsIdentically: state logged before requests
// recorded each key once still loads with its repeats, replays, and
// repairs exactly as the binary that wrote it did. A re-executed record is
// collected afresh and names the snippet once.
func TestPreDedupCheckpointRepairsIdentically(t *testing.T) {
	snippet := vdb.Key{Model: dpaste.ModelSnippet, ID: "paste-dpaste-req-1.0"}
	for _, tc := range []struct {
		action            warp.Action
		repaired, msgs    int
		state, reexecuted string
	}{
		{warp.Action{Kind: warp.CancelReq, ReqID: "dpaste-req-2"}, 2, 0, preDedupCancelState, "dpaste-req-3"},
		{warp.Action{Kind: warp.ReplaceReq, ReqID: "dpaste-req-1", NewReq: wire.NewRequest("POST", "/paste").WithForm("code", "print(2)", "author", "alice")}, 3, 0, preDedupReplaceState, "dpaste-req-2"},
	} {
		t.Run(tc.action.Kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(0)), []byte(preDedupCheckpoint), 0o644); err != nil {
				t.Fatal(err)
			}
			load := func() (*core.Controller, *wal.Writer) {
				c := core.NewController(dpaste.New(), transport.NewBus(), core.DefaultConfig())
				w, err := persist.Recover(c, dir, wal.Options{Policy: wal.FsyncEveryCommit})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Svc.Log.VerifyIndexes(); err != nil {
					t.Fatal(err)
				}
				return c, w
			}
			b, w := load()
			if rec, _ := b.Svc.Log.Get("dpaste-req-3"); len(rec.Reads) != 2 || rec.Reads[0] != rec.Reads[1] || rec.Reads[0].Key != snippet {
				t.Fatalf("loaded dpaste-req-3 reads = %+v, want the snippet twice as logged", rec.Reads)
			}
			res, err := b.ApplyLocal(tc.action)
			if err != nil {
				t.Fatal(err)
			}
			if res.RepairedRequests != tc.repaired || len(res.Msgs) != tc.msgs || len(res.Notices) != 0 {
				t.Errorf("repaired %d, %d msgs, notices %+v; want %d, %d, none", res.RepairedRequests, len(res.Msgs), res.Notices, tc.repaired, tc.msgs)
			}
			if got := dedupFixtureState(t, b); got != tc.state {
				t.Errorf("after repair:\n%s\nwant:\n%s", got, tc.state)
			}
			if rec, _ := b.Svc.Log.Get(tc.reexecuted); len(rec.Reads) != 1 || rec.Reads[0].Key != snippet {
				t.Errorf("re-executed %s reads = %+v, want the snippet once", tc.reexecuted, rec.Reads)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// Checkpoint plus the repair's WAL entries rebuild the same state.
			again, w2 := load()
			defer w2.Close()
			if got := dedupFixtureState(t, again); got != tc.state {
				t.Errorf("after replay:\n%s\nwant:\n%s", got, tc.state)
			}
		})
	}
}
