package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aire/internal/repairlog"
	"aire/internal/transport"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/wire"
)

// Layer probes call one layer's public functions directly, at the sizes
// the workloads use, so that core.self_us (which cannot be split from
// outside) can be apportioned: a scan plus a 500-dependency append is an
// askbot.read, a put plus a 1-dependency append is most of a write, one
// append+sync and four hops are most of a put.aire. They run as part of
// every traced pass and do not depend on the workload.

const (
	probeOps      = 20000 // vdb put/get, 1-dep append
	probeScanSize = askbotSeedQuestions
	probeScans    = 400 // scans and 500-dep appends
	probeWALOps   = 200 // append+sync of a 1 KB entry
	probeHTTPOps  = 2000
	probeValue    = 136 // mean generated value size
)

func perOpNS(start time.Time, n int) float64 {
	return float64(time.Since(start)) / float64(n)
}

func runProbes(outDir string) (map[string]float64, error) {
	m := map[string]float64{}
	val := map[string]string{"val": strings.Repeat("v", probeValue)}

	// vdb: fresh-key puts, point gets, and the model scan orm.Tx.List does
	// (scan fingerprint, member IDs, one GetAt per member).
	store := vdb.NewStore()
	keys := make([]vdb.Key, probeOps)
	for i := range keys {
		keys[i] = vdb.Key{Model: kvModel, ID: fmt.Sprintf("k%d", i)}
	}
	start := time.Now()
	for i, k := range keys {
		if err := store.Put(k, val, int64(i+1), "r"); err != nil {
			return nil, err
		}
	}
	m["vdb.put_ns"] = perOpNS(start, probeOps)
	start = time.Now()
	for _, k := range keys {
		store.Get(k)
	}
	m["vdb.get_ns"] = perOpNS(start, probeOps)

	scanStore := vdb.NewStore()
	for i := 0; i < probeScanSize; i++ {
		if err := scanStore.Put(vdb.Key{Model: "question", ID: fmt.Sprintf("q%04d", i)}, val, int64(i+1), "r"); err != nil {
			return nil, err
		}
	}
	at := int64(probeScanSize + 1)
	start = time.Now()
	for i := 0; i < probeScans; i++ {
		scanStore.ScanHashAtExcluding("question", at, "reader")
		for _, id := range scanStore.IDsAt("question", at) {
			scanStore.GetAt(vdb.Key{Model: "question", ID: id}, at)
		}
	}
	m["vdb.scan_ns"] = perOpNS(start, probeScans)

	// repairlog: a write's record (one dependency) and a question-list
	// read's record (one scan plus a read per listed author).
	log := repairlog.New(true)
	req := wire.NewRequest("POST", "/put").WithForm("key", "k", "val", val["val"])
	start = time.Now()
	for i := 0; i < probeOps; i++ {
		rec := &repairlog.Record{ID: fmt.Sprintf("w%d", i), TS: int64(i + 1), Req: req,
			Resp:   wire.NewResponse(200, "ok"),
			Writes: []repairlog.WriteDep{{Key: keys[i], TS: int64(i + 1)}}}
		if err := log.Append(rec); err != nil {
			return nil, err
		}
	}
	m["repairlog.append_ns.1dep"] = perOpNS(start, probeOps)
	reads := make([]repairlog.ReadDep, probeScanSize)
	for i := range reads {
		reads[i] = repairlog.ReadDep{Key: vdb.Key{Model: "user", ID: fmt.Sprintf("u%d", i)}, TS: 1, Hash: uint64(i + 1)}
	}
	get := wire.NewRequest("GET", "/questions")
	start = time.Now()
	for i := 0; i < probeScans; i++ {
		rec := &repairlog.Record{ID: fmt.Sprintf("r%d", i), TS: int64(probeOps + i + 1), Req: get,
			Resp:  wire.NewResponse(200, "ok"),
			Scans: []repairlog.ScanDep{{Model: "question", Hash: 1}},
			Reads: append([]repairlog.ReadDep(nil), reads...)}
		if err := log.Append(rec); err != nil {
			return nil, err
		}
	}
	m["repairlog.append_ns.500dep"] = perOpNS(start, probeScans)

	// wal: append plus the fsync the every-commit policy owes, 1 KB entry.
	dir := filepath.Join(outDir, "probe-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		return nil, err
	}
	payload := []byte(`"` + strings.Repeat("x", 1024) + `"`)
	start = time.Now()
	for i := 0; i < probeWALOps; i++ {
		if _, err := w.Append("probe", int64(i), int64(i), []wal.Op{{Kind: "probe", Data: payload}}); err != nil {
			w.Close()
			return nil, err
		}
	}
	m["wal.probe_append_sync_us"] = perOpNS(start, probeWALOps) / 1e3
	if err := w.Close(); err != nil {
		return nil, err
	}

	// transport: one HTTP hop to a handler that does nothing.
	noop := transport.HandlerFunc(func(string, wire.Request) wire.Response { return wire.NewResponse(200, "ok") })
	srv := httptest.NewServer(transport.NewHTTPHandler(noop))
	defer srv.Close()
	caller := &transport.HTTPCaller{BaseURLs: map[string]string{"noop": srv.URL}}
	for i := 0; i < 50; i++ { // open the keep-alive connection
		if _, err := caller.Call("", "noop", req); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	for i := 0; i < probeHTTPOps; i++ {
		if _, err := caller.Call("", "noop", req); err != nil {
			return nil, err
		}
	}
	m["transport.probe_hop_us"] = perOpNS(start, probeHTTPOps) / 1e3
	return m, nil
}
