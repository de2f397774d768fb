package warp

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/web"
	"aire/internal/wire"
)

// leakNotices counts the result's leak notices.
func leakNotices(res *Result) int {
	n := 0
	for _, no := range res.Notices {
		if no.Kind == NoticeLeak {
			n++
		}
	}
	return n
}

// TestLeakNoticedOncePerKey: a record logged before requests recorded each
// key once may read one confidential object three times. Cancelling it,
// and re-executing it so that it no longer reads the object, each report
// the leak once.
func TestLeakNoticedOncePerKey(t *testing.T) {
	secret := vdb.Key{Model: "kv", ID: "secret"}
	for _, tc := range []struct {
		name   string
		action func(id string) Action
	}{
		{"cancel", func(id string) Action { return Action{Kind: CancelReq, ReqID: id} }},
		{"reexecute", func(id string) Action {
			return Action{Kind: ReplaceReq, ReqID: id, NewReq: wire.NewRequest("GET", "/peek")}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, func(svc *web.Service) {
				kvRoutes(svc)
				svc.Router.Handle("GET", "/peek", func(c *web.Ctx) wire.Response {
					if g, _ := c.DB.Get("kv", "gate"); g.Get("v") == "open" {
						s, _ := c.DB.Get("kv", "secret")
						return c.OK(s.Get("v"))
					}
					return c.Error(403, "closed")
				})
			})
			r.handle(t, put("secret", "s3cr3t"), false)
			r.svc.Store.MarkConfidential(secret)
			r.handle(t, put("gate", "closed"), false)
			v, _ := r.svc.Store.ViewAt(secret, r.svc.Clock.Now())
			read := repairlog.ReadDep{Key: secret, TS: v.TS, Hash: v.Hash()}
			rec := &repairlog.Record{
				ID: r.svc.IDs.Request(), TS: r.svc.Clock.Next(),
				Req:   wire.NewRequest("GET", "/peek"),
				Resp:  wire.NewResponse(200, "s3cr3t"),
				Reads: []repairlog.ReadDep{read, read, read},
			}
			if err := r.svc.Log.Append(rec); err != nil {
				t.Fatal(err)
			}
			res, err := r.engine.Repair([]Action{tc.action(rec.ID)})
			if err != nil {
				t.Fatal(err)
			}
			if n := leakNotices(res); n != 1 {
				t.Fatalf("%d leak notices, want 1: %+v", n, res.Notices)
			}
		})
	}
}

// rmkRoutes adds POST /rmk: read j, read k, delete k, read k again.
func rmkRoutes(svc *web.Service) {
	kvRoutes(svc)
	svc.Router.Handle("POST", "/rmk", func(c *web.Ctx) wire.Response {
		c.DB.Get("kv", "j")
		c.DB.Get("kv", "k")
		if err := c.DB.Delete("kv", "k"); err != nil {
			return c.Error(500, err.Error())
		}
		if _, ok := c.DB.Get("kv", "k"); ok {
			return c.Error(500, "k survived its delete")
		}
		return c.OK("removed")
	})
}

// TestOwnDeleteRereadNotReexecuted: a request that reads k, deletes k and
// reads k again used to log the second read as a miss after the first as a
// hit. Repair masks the request's own delete, so that second read never
// matched and any repair whose walk reached the record re-executed it.
// Here an idempotent replace of j's writer reaches it through the readers
// index of j, which the request read unchanged: only the replaced request
// is repaired, by the indexed walk and by the linear one.
func TestOwnDeleteRereadNotReexecuted(t *testing.T) {
	for _, linear := range []bool{false, true} {
		t.Run(fmt.Sprintf("linear=%v", linear), func(t *testing.T) {
			r := newRig(t, rmkRoutes)
			walk := walkFunc((*Engine).walkIndexed)
			if linear {
				walk = walkLinear
			}
			wj := r.handle(t, put("j", "1"), false)
			r.handle(t, put("k", "2"), false)
			rm := r.handle(t, wire.NewRequest("POST", "/rmk"), false)
			res, err := r.engine.repair([]Action{{Kind: ReplaceReq, ReqID: wj.ID, NewReq: put("j", "1")}}, walk)
			if err != nil {
				t.Fatal(err)
			}
			if res.RepairedRequests != 1 || rm.RepairGen != 0 {
				t.Errorf("repaired %d requests (rmk at gen %d), want only the replaced one", res.RepairedRequests, rm.RepairGen)
			}
			if len(rm.Reads) != 2 || rm.Reads[1].Key.ID != "k" || rm.Reads[1].Hash == vdb.MissingHash {
				t.Errorf("rmk reads = %+v, want j and k once each, k as found", rm.Reads)
			}
		})
	}
}

// progOp is one step of a generated handler: get, list, put or delete.
type progOp struct {
	kind       byte
	model, key string
}

// genProgs draws n handler programs over two models of three keys each,
// short enough that keys and models recur within a program. Some steps
// are the patterns the proof is about: a read, a delete and a read again
// of one key, or a put and a read back.
func genProgs(rng *rand.Rand, n int) [][]progOp {
	models, keys := []string{"a", "b"}, []string{"k0", "k1", "k2"}
	progs := make([][]progOp, n)
	for i := range progs {
		for j := 2 + rng.Intn(8); j > 0; j-- {
			m, k := models[rng.Intn(2)], keys[rng.Intn(3)]
			var kinds string
			switch x := rng.Intn(20); {
			case x < 7:
				kinds = "g"
			case x < 10:
				kinds = "l"
			case x < 15:
				kinds = "p"
			case x < 17:
				kinds = "d"
			case x < 19:
				kinds = "gdg"
			default:
				kinds = "pg"
			}
			for _, kind := range []byte(kinds) {
				progs[i] = append(progs[i], progOp{kind: kind, model: m, key: k})
			}
		}
	}
	return progs
}

// runProgs executes the programs in order as requests of a fresh service
// and returns their log records together with the full records: the same
// requests with every dependency recorded each time it occurred. A full
// record's reads and scans come from a probe Tx at the same snapshot with
// an empty sink per operation, so a repeat is recorded as the repeat saw
// it.
func runProgs(t *testing.T, progs [][]progOp) (*web.Service, []*repairlog.Record, []*repairlog.Record) {
	t.Helper()
	svc := web.NewService("prop")
	svc.Schema.Register("a")
	svc.Schema.Register("b")
	full := make(map[string]*orm.Deps)
	svc.Router.Handle("POST", "/prog", func(c *web.Ctx) wire.Response {
		i, _ := strconv.Atoi(c.Form("i"))
		deps := &orm.Deps{}
		probe := *c.DB
		for n, op := range progs[i] {
			probe.Deps = &orm.Deps{}
			k := vdb.Key{Model: op.model, ID: op.key}
			var err error
			switch op.kind {
			case 'g':
				c.DB.Get(op.model, op.key)
				probe.Get(op.model, op.key)
			case 'l':
				c.DB.List(op.model)
				probe.List(op.model)
			case 'p':
				err = c.DB.Put(op.model, op.key, orm.Fields("v", fmt.Sprintf("%s/%d", c.ReqID(), n)))
			case 'd':
				err = c.DB.Delete(op.model, op.key)
			}
			if (op.kind == 'p' || op.kind == 'd') && err == nil {
				deps.Writes = append(deps.Writes, repairlog.WriteDep{Key: k, TS: c.TS()})
			}
			deps.Reads = append(deps.Reads, probe.Deps.Reads...)
			deps.Scans = append(deps.Scans, probe.Deps.Scans...)
		}
		full[c.ReqID()] = deps
		return c.OK("")
	})
	var recs, fulls []*repairlog.Record
	for i := range progs {
		rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next(), Req: wire.NewRequest("POST", "/prog").WithForm("i", strconv.Itoa(i))}
		(&web.Exec{Svc: svc, Rec: rec, Mode: web.Normal}).Run()
		if err := svc.Log.Append(rec); err != nil {
			t.Fatal(err)
		}
		f := *rec
		d := full[rec.ID]
		f.Reads, f.Scans, f.Writes = d.Reads, d.Scans, d.Writes
		recs, fulls = append(recs, rec), append(fulls, &f)
	}
	return svc, recs, fulls
}

// firstOccurrences drops every dependency whose key (for scans, model)
// an earlier one already names.
func firstOccurrences(r *repairlog.Record) (reads []repairlog.ReadDep, scans []repairlog.ScanDep, writes []repairlog.WriteDep) {
	for _, d := range r.Reads {
		if !slices.ContainsFunc(reads, func(e repairlog.ReadDep) bool { return e.Key == d.Key }) {
			reads = append(reads, d)
		}
	}
	for _, d := range r.Scans {
		if !slices.ContainsFunc(scans, func(e repairlog.ScanDep) bool { return e.Model == d.Model }) {
			scans = append(scans, d)
		}
	}
	for _, d := range r.Writes {
		if !slices.ContainsFunc(writes, func(e repairlog.WriteDep) bool { return e.Key == d.Key }) {
			writes = append(writes, d)
		}
	}
	return reads, scans, writes
}

// deletesThenReads reports whether a program reads some key after
// deleting it.
func deletesThenReads(prog []progOp) bool {
	deleted := make(map[progOp]bool)
	for _, op := range prog {
		key := progOp{model: op.model, key: op.key}
		switch op.kind {
		case 'd':
			deleted[key] = true
		case 'g':
			if deleted[key] {
				return true
			}
		}
	}
	return false
}

// TestDedupedRecordSameVerdict is the proof that recording each dependency
// once loses nothing repair needs. Seeded handlers re-read keys, re-list
// models and put or delete keys before reading them again. Each request's
// log record is compared with its full record, every repeat included:
// the log record is the full record's first occurrences exactly, and at
// every rollback point (one key's versions from just before some request
// on removed, or replaced by a different value) both give the same
// affected verdict for every later request. Neither records a read of a
// key after the request's own delete: repair masks the request's own
// writes, so such a read would never match again.
func TestDedupedRecordSameVerdict(t *testing.T) {
	const seeds, requests = 20, 16
	var repeats, ownDeletes, verdicts, hits int
	for seed := int64(1); seed <= seeds; seed++ {
		progs := genProgs(rand.New(rand.NewSource(seed)), requests)
		_, recs, fulls := runProgs(t, progs)
		for i, rec := range recs {
			reads, scans, writes := firstOccurrences(fulls[i])
			if !slices.Equal(rec.Reads, reads) || !slices.Equal(rec.Scans, scans) || !slices.Equal(rec.Writes, writes) {
				t.Fatalf("seed %d %s: logged %+v %+v %+v, want the full record's first occurrences %+v %+v %+v",
					seed, rec.ID, rec.Reads, rec.Scans, rec.Writes, reads, scans, writes)
			}
			if len(fulls[i].Reads)+len(fulls[i].Scans)+len(fulls[i].Writes) > len(reads)+len(scans)+len(writes) {
				repeats++
			}
			if deletesThenReads(progs[i]) {
				ownDeletes++
			}
		}
		for p := range recs {
			at := recs[p].TS - 1
			for _, m := range []string{"a", "b"} {
				for _, id := range []string{"k0", "k1", "k2"} {
					for _, rewrite := range []bool{false, true} {
						svc, recs, fulls := runProgs(t, progs)
						k := vdb.Key{Model: m, ID: id}
						svc.Store.Rollback(k, at)
						if rewrite {
							if err := svc.Store.Put(k, orm.Fields("v", "repaired"), at, "repair"); err != nil {
								t.Fatal(err)
							}
						}
						e := &Engine{Svc: svc}
						for j := p; j < len(recs); j++ {
							d, f := e.affected(recs[j]), e.affected(fulls[j])
							verdicts++
							if f {
								hits++
							}
							if d != f {
								t.Fatalf("seed %d, %v rolled back to %d (rewrite %v): %s affected %v, full record %v\nlogged %+v\nfull %+v",
									seed, k, at, rewrite, recs[j].ID, d, f, recs[j].Reads, fulls[j].Reads)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d records with repeats, %d reading their own delete; %d verdicts, %d affected",
		repeats, ownDeletes, verdicts, hits)
	if repeats == 0 || ownDeletes == 0 || hits == 0 || hits == verdicts {
		t.Fatal("the generated handlers no longer exercise repeats, own-delete re-reads, or both verdicts")
	}
}
