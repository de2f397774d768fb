package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/orm"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/web"
	"aire/internal/wire"
)

const (
	hubName   = "hub"
	peerCount = 3
	kvModel   = "kv" // harness.KVApp's model
)

// copyApp is repair.wave's application: harness.KVApp (a mirroring
// key-value service) plus POST /copy, whose write depends on a read — the
// dependency a repair wave has to chase.
type copyApp struct {
	harness.KVApp
}

func (a *copyApp) Register(svc *web.Service) {
	a.KVApp.Register(svc)
	svc.Router.Handle("POST", "/copy", func(c *web.Ctx) wire.Response {
		o, ok := c.DB.Get(kvModel, c.Form("src"))
		if !ok {
			return c.Error(404, "missing")
		}
		dst, val := c.Form("dst"), o.Get("val")
		if err := c.DB.Put(kvModel, dst, orm.Fields("val", val)); err != nil {
			return c.Error(500, err.Error())
		}
		for _, m := range a.Mirrors {
			c.Call(m, wire.NewRequest("POST", "/put").WithForm("key", dst, "val", val))
		}
		return c.OK("ok")
	})
}

// topoConfig selects one of the HTTP topologies. All of them are a hub
// that mirrors every write to three peers over the real HTTP adapter.
type topoConfig struct {
	// aire: every service is a core.Controller (adaptive batching and
	// admission control on, pump running) and the hub commits to a WAL
	// with fsync on every commit. Otherwise every service is a
	// harness.BareRunner: same app, same HTTP path, no Aire.
	aire bool
	// copyApp serves repair.wave's app instead of harness.KVApp.
	copyApp bool
	// walDir is where the hub's log goes (aire only); removed on close.
	walDir string
	// tr, when non-nil, wraps every caller, handler and the WAL hooks.
	tr *tracer
}

type httpTopo struct {
	cfg    topoConfig
	names  []string // hub first
	svcs   []*web.Service
	ctrls  []*core.Controller // nil when bare
	client core.Caller        // what the benchmark's own clients send with
	close  func()
}

func (cfg topoConfig) app(name string, mirrors []string) core.App {
	kv := harness.KVApp{ServiceName: name, Mirrors: mirrors}
	if cfg.copyApp {
		return &copyApp{kv}
	}
	return &kv
}

// newHTTPTopo builds a topology: services, WAL recovery, listeners, pumps.
func newHTTPTopo(cfg topoConfig) (*httpTopo, error) {
	raw := &transport.HTTPCaller{BaseURLs: map[string]string{}}
	var net core.Caller = raw
	if cfg.tr != nil {
		net = tracedCaller{inner: raw, t: cfg.tr}
	}
	t := &httpTopo{cfg: cfg, client: net, names: []string{hubName}}
	var peers []string
	for i := 0; i < peerCount; i++ {
		peers = append(peers, fmt.Sprintf("peer%d", i))
	}
	t.names = append(t.names, peers...)

	var closers []func()
	t.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*httpTopo, error) {
		t.close()
		return nil, err
	}

	handlers := make([]transport.Handler, len(t.names))
	layer := layerBare
	for i, name := range t.names {
		var mirrors []string
		if i == 0 {
			mirrors = peers
		}
		if cfg.aire {
			ccfg := core.DefaultConfig()
			ccfg.BatchPolicy = core.DefaultAdaptiveBatch()
			ccfg.Admission = core.DefaultAdmission()
			c := core.NewController(cfg.app(name, mirrors), net, ccfg)
			t.ctrls = append(t.ctrls, c)
			t.svcs = append(t.svcs, c.Svc)
			handlers[i] = c
			layer = layerCore
		} else {
			b := harness.NewBareRunner(cfg.app(name, mirrors), net)
			t.svcs = append(t.svcs, b.Svc)
			handlers[i] = b
		}
	}

	if cfg.aire {
		if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
			return fail(err)
		}
		closers = append(closers, func() { os.RemoveAll(cfg.walDir) })
		opts := wal.Options{Policy: wal.FsyncEveryCommit}
		if cfg.tr != nil {
			opts.OnAppend, opts.OnSync = cfg.tr.walHooks(hubName)
		}
		writers, err := persist.RecoverShards(t.ctrls[:1], []string{cfg.walDir}, opts)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() { writers[0].Close() })
	}

	for i, name := range t.names {
		h := handlers[i]
		if cfg.tr != nil {
			h = tracedHandler{inner: h, svc: name, layer: layer, t: cfg.tr}
		}
		srv := httptest.NewServer(transport.NewHTTPHandler(h))
		closers = append(closers, srv.Close)
		raw.BaseURLs[name] = srv.URL
	}

	if cfg.aire {
		stop, err := core.StartPumps(context.Background(), t.ctrls...)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, stop)
	}
	return t, nil
}

// hub returns the hub's controller (aire topologies only).
func (t *httpTopo) hub() *core.Controller { return t.ctrls[0] }

// get reads key from one service's store directly: the correctness checks
// look at what each service holds, not at what it would answer.
func (t *httpTopo) get(svc int, key string) (string, bool) {
	v, ok := t.svcs[svc].Store.Get(vdb.Key{Model: kvModel, ID: key})
	if !ok {
		return "", false
	}
	return v.Fields["val"], true
}

// walBytes is the size of the hub's WAL segments on disk.
func (t *httpTopo) walBytes() int64 {
	if !t.cfg.aire {
		return 0
	}
	return dirSegmentBytes(t.cfg.walDir)
}

func dirSegmentBytes(dir string) int64 {
	names, err := wal.Segments(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// storage sums what the services have stored: repair-log bytes and
// database version bytes over every service, plus the WAL on disk — the
// paper's Table 4 storage columns plus the log that makes them durable.
type storage struct {
	logBytes, dbBytes, walBytes int64
}

func (s storage) total() int64 { return s.logBytes + s.dbBytes + s.walBytes }

func (s storage) sub(o storage) storage {
	return storage{s.logBytes - o.logBytes, s.dbBytes - o.dbBytes, s.walBytes - o.walBytes}
}

func storageOf(svcs []*web.Service, walBytes int64) storage {
	st := storage{walBytes: walBytes}
	for _, svc := range svcs {
		st.logBytes += svc.Log.AppBytes()
		st.dbBytes += svc.Store.VersionBytes()
	}
	return st
}

func indexBytesOf(svcs []*web.Service) int64 {
	var n int64
	for _, svc := range svcs {
		n += svc.Store.IndexBytes() + svc.Log.IndexBytes()
	}
	return n
}

// walErr returns the first sticky WAL error of any controller.
func walErr(ctrls []*core.Controller) error {
	for _, c := range ctrls {
		if err := c.WALError(); err != nil {
			return fmt.Errorf("%s: wal: %w", c.Svc.Name, err)
		}
	}
	return nil
}
