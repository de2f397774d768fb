package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aire/internal/apps/askbot"
	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/web"
	"aire/internal/wire"
)

// Run lengths and sizes. They are constants so that every commit is
// measured with the same benchmark; only the window (--seconds) and, in
// the smoke test, an op cap come from outside.
const (
	// httpClients is the closed-loop client count of the HTTP workloads
	// (each client keeps one keep-alive connection busy). The reference
	// host has two cores; more clients than cores would measure the
	// scheduler. It is capped at the core count in clients().
	httpClients = 2
	// httpWarmupOps warms the keep-alive connections, the WAL segment and
	// the heap before the first timed op; it is part of set-up.
	httpWarmupOps = 300
	// readBackKeys is how many written keys the put workloads read back
	// from every service.
	readBackKeys = 200

	waveDependents = 32
	waveWarmups    = 2

	askbotSeedQuestions = 500
	askbotReadEpisode   = 750
	askbotWriteEpisode  = 50000

	repairUsers = 100
	repairPosts = 5

	// warmSeqBase keeps warm-up keys apart from measured keys.
	warmSeqBase = 1 << 40
)

func clients() int {
	if n := runtime.NumCPU(); n < httpClients {
		return n
	}
	return httpClients
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed   int64
	window time.Duration // measure for this long …
	maxOps int           // … or until this many timed ops (0 = no cap)
	setups int           // set-up repetitions behind setup_s
	outDir string        // scratch space (WAL directories)
	tr     *tracer       // nil = tracing off
}

// done reports whether a run that began at start and has completed ops
// timed ops should stop.
func (cfg runConfig) done(start time.Time, ops int) bool {
	if cfg.maxOps > 0 && ops >= cfg.maxOps {
		return true
	}
	return time.Since(start) >= cfg.window
}

// runResult is what one run measured, before it is turned into metrics.
type runResult struct {
	samples   []sample
	attempted int
	failed    int
	problems  []string // why ops failed or checks did not hold (first few)

	stored     storage // growth over the measured ops
	indexBytes int64
	setupS     []float64
	allocBytes uint64
	allocs     uint64

	// bare is the interleaved Aire-off twin of the in-process workloads.
	bare []sample

	// counters feed the per-layer metrics that are counts kept by the
	// system itself (all deltas over the measured ops).
	repairNS      int64 // Σ RepairDuration over every service
	reexecuted    int   // Σ repaired requests over every service
	msgsQueued    int64 // hub
	msgsDelivered int64 // hub
	dupOrStale    int64 // Σ over every service
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// memDelta accumulates allocation counts over timed sections.
type memDelta struct {
	before runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop(r *runResult) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	r.allocs += after.Mallocs - m.before.Mallocs
}

// ctrlCounters snapshots the counters the controllers keep.
type ctrlCounters struct {
	repairNS                  int64
	reexecuted                int
	queued, delivered, wasted int64
}

func countersOf(ctrls []*core.Controller, hub *core.Controller) ctrlCounters {
	var c ctrlCounters
	for _, ctrl := range ctrls {
		c.repairNS += int64(ctrl.RepairDuration())
		n, _, _, _ := ctrl.RepairCounts()
		c.reexecuted += n
		st := ctrl.Stats()
		c.wasted += st.DupDeliveries + st.StaleDeliveries
	}
	if hub != nil {
		st := hub.Stats()
		c.queued, c.delivered = st.MsgsQueued, st.MsgsDelivered
	}
	return c
}

func (r *runResult) addCounters(before, after ctrlCounters) {
	r.repairNS += after.repairNS - before.repairNS
	r.reexecuted += after.reexecuted - before.reexecuted
	r.msgsQueued += after.queued - before.queued
	r.msgsDelivered += after.delivered - before.delivered
	r.dupOrStale += after.wasted - before.wasted
}

// repeatSetup runs setup cfg.setups times, timing each, tears down all but
// the last fixture, and returns the last. setup_s is the median of the
// timings, so one slow directory creation or listener bind does not decide
// it.
func repeatSetup[T any](cfg runConfig, r *runResult, setup func() (T, func(), error)) (T, func(), error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		fx, closeFx, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if i >= cfg.setups-1 {
			return fx, closeFx, nil
		}
		closeFx()
	}
}

// ---- put.aire / put.bare --------------------------------------------

func putRequest(p putOp) wire.Request {
	return wire.NewRequest("POST", "/put").WithForm("key", p.Key, "val", p.Val)
}

// runPut is the closed-loop mirror-put workload over real HTTP, with Aire
// (put.aire) or without (put.bare).
func runPut(aire bool) func(runConfig) (*runResult, error) {
	return func(cfg runConfig) (*runResult, error) {
		r := &runResult{}
		topo, closeTopo, err := repeatSetup(cfg, r, func() (*httpTopo, func(), error) {
			t, err := newHTTPTopo(topoConfig{aire: aire, walDir: filepath.Join(cfg.outDir, "wal"), tr: cfg.tr})
			if err != nil {
				return nil, nil, err
			}
			cfg.tr.record(false)
			warm := newGenerator(cfg.seed)
			warm.seq = warmSeqBase
			for i := 0; i < httpWarmupOps; i++ {
				if resp, err := t.client.Call("", hubName, putRequest(warm.put())); err != nil || !resp.OK() {
					t.close()
					return nil, nil, fmt.Errorf("warm-up put: %v %d", err, resp.Status)
				}
			}
			return t, t.close, nil
		})
		if err != nil {
			return nil, err
		}
		defer closeTopo()

		gen := newGenerator(cfg.seed)
		var (
			mu      sync.Mutex
			written []putOp
			ops     atomic.Int64
			wg      sync.WaitGroup
			mem     memDelta
		)
		before := storageOf(topo.svcs, topo.walBytes())
		cfg.tr.record(true)
		runtime.GC() // every run starts from the same heap and GC pacing
		mem.start()
		start := time.Now()
		for c := 0; c < clients(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !cfg.done(start, int(ops.Add(1))-1) {
					p := gen.put()
					root := cfg.tr.beginOp("put", p.Seq)
					t0 := time.Now()
					resp, err := topo.client.Call("", hubName, putRequest(p))
					end := time.Now()
					cfg.tr.endOp(root, p.Seq)
					mu.Lock()
					r.attempted++
					if err != nil || !resp.OK() {
						r.fail("put %s: %v %d %s", p.Key, err, resp.Status, resp.Body)
					} else {
						r.samples = append(r.samples, sample{end: int64(end.Sub(start)), lat: int64(end.Sub(t0))})
						written = append(written, p)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		mem.stop(r)
		cfg.tr.record(false)
		r.stored = storageOf(topo.svcs, topo.walBytes()).sub(before)
		r.indexBytes = indexBytesOf(topo.svcs)

		// Read a seeded sample of the written keys back from the hub and
		// from every peer, over the same HTTP path.
		rng := rand.New(rand.NewSource(cfg.seed))
		for i := 0; i < readBackKeys && len(written) > 0; i++ {
			p := written[rng.Intn(len(written))]
			for _, svc := range topo.names {
				resp, err := topo.client.Call("", svc, wire.NewRequest("GET", "/get").WithForm("key", p.Key))
				if err != nil || string(resp.Body) != p.Val {
					r.fail("read-back of %s from %s: %v %d", p.Key, svc, err, resp.Status)
				}
			}
		}
		if err := walErr(topo.ctrls); err != nil {
			r.fail("%v", err)
		}
		return r, nil
	}
}

// ---- repair.wave -----------------------------------------------------

// runOneWave runs one repair wave against topo. The attack, its dependents
// and the clean keys are untimed traffic; the timed op is the repair call
// plus the wait until every service has converged. A nil r is a warm-up
// wave: nothing is recorded.
func runOneWave(topo *httpTopo, w waveKeys, cfg runConfig, r *runResult, clock *int64) error {
	call := func(req wire.Request) (wire.Response, error) {
		resp, err := topo.client.Call("", hubName, req)
		if err == nil && !resp.OK() {
			err = fmt.Errorf("%s %s: %d %s", req.Method, req.Path, resp.Status, resp.Body)
		}
		return resp, err
	}
	if _, err := call(putRequest(w.Clean)); err != nil {
		return err
	}
	if _, err := call(wire.NewRequest("POST", "/copy").WithForm("src", w.Clean.Key, "dst", w.CleanCopy)); err != nil {
		return err
	}
	attack, err := call(putRequest(w.Attack))
	if err != nil {
		return err
	}
	for _, d := range w.Dependents {
		if _, err := call(wire.NewRequest("POST", "/copy").WithForm("src", w.Attack.Key, "dst", d)); err != nil {
			return err
		}
	}
	repair := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "delete",
		wire.HdrRequestID, attack.Header[wire.HdrRequestID],
	)
	if r == nil { // warm-up
		if _, err := call(repair); err != nil {
			return err
		}
		for _, c := range topo.ctrls {
			c.WaitQueueEmpty(waveTimeout)
		}
		return nil
	}

	doomed := append([]string{w.Attack.Key}, w.Dependents...)
	before := countersOf(topo.ctrls, topo.hub())
	var mem memDelta
	mem.start()
	cfg.tr.record(true)
	root := cfg.tr.beginOp("wave", w.Wave)
	t0 := time.Now()
	_, err = call(repair)
	converged := err == nil
	for _, c := range topo.ctrls {
		converged = c.WaitQueueEmpty(waveTimeout) && converged
	}
	var survivor string
	for svc := range topo.names {
		for _, key := range doomed {
			if _, ok := topo.get(svc, key); ok {
				survivor = key + " on " + topo.names[svc]
			}
		}
	}
	lat := time.Since(t0)
	cfg.tr.endOp(root, w.Wave)
	cfg.tr.record(false)
	mem.stop(r)
	r.addCounters(before, countersOf(topo.ctrls, topo.hub()))
	*clock += int64(lat)
	r.attempted++
	switch {
	case err != nil:
		r.fail("wave %d: repair call: %v", w.Wave, err)
	case !converged:
		r.fail("wave %d: outgoing queues not empty after %s", w.Wave, waveTimeout)
	case survivor != "":
		r.fail("wave %d: %s survived the repair", w.Wave, survivor)
	default:
		r.samples = append(r.samples, sample{end: *clock, lat: int64(lat)})
	}
	return nil
}

const waveTimeout = 10 * time.Second

func runWave(cfg runConfig) (*runResult, error) {
	r := &runResult{}
	topo, closeTopo, err := repeatSetup(cfg, r, func() (*httpTopo, func(), error) {
		t, err := newHTTPTopo(topoConfig{aire: true, copyApp: true, walDir: filepath.Join(cfg.outDir, "wal"), tr: cfg.tr})
		if err != nil {
			return nil, nil, err
		}
		cfg.tr.record(false)
		warm := newGenerator(cfg.seed)
		warm.seq = warmSeqBase
		for i := 0; i < waveWarmups; i++ {
			if err := runOneWave(t, warm.wave(waveDependents), cfg, nil, nil); err != nil {
				t.close()
				return nil, nil, fmt.Errorf("warm-up wave: %w", err)
			}
		}
		return t, t.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer closeTopo()

	gen := newGenerator(cfg.seed)
	var waves []waveKeys
	var clock int64
	before := storageOf(topo.svcs, topo.walBytes())
	runtime.GC() // every run starts from the same heap and GC pacing
	start := time.Now()
	for !cfg.done(start, r.attempted) {
		w := gen.wave(waveDependents)
		waves = append(waves, w)
		if err := runOneWave(topo, w, cfg, r, &clock); err != nil {
			return nil, fmt.Errorf("wave %d set-up traffic: %w", w.Wave, err)
		}
	}
	r.stored = storageOf(topo.svcs, topo.walBytes()).sub(before)
	r.indexBytes = indexBytesOf(topo.svcs)

	// No over-repair: every clean key and clean copy still holds its
	// value on all four services.
	for _, w := range waves {
		for svc := range topo.names {
			for _, key := range []string{w.Clean.Key, w.CleanCopy} {
				if got, ok := topo.get(svc, key); !ok || got != w.Clean.Val {
					r.fail("clean key %s on %s lost its value", key, topo.names[svc])
				}
			}
		}
	}
	if err := walErr(topo.ctrls); err != nil {
		r.fail("%v", err)
	}
	return r, nil
}

// ---- askbot.read / askbot.write ----------------------------------------

type askbotFixture struct {
	bench   *harness.AskbotBench
	handler harness.AskbotCaller
	svc     *web.Service
	asked   int
}

func askRequest(session string, a askOp) wire.Request {
	return wire.NewRequest("POST", "/ask").WithForm("session", session, "title", a.Title, "body", a.Body)
}

// newAskbotFixture builds one in-process Askbot deployment, with Aire or
// bare, and seeds it with the generator's first questions.
func newAskbotFixture(withAire bool, gen *generator, tr *tracer) (*askbotFixture, error) {
	b, err := harness.NewAskbotBench(withAire)
	if err != nil {
		return nil, err
	}
	fx := &askbotFixture{bench: b, handler: b.Handler}
	layer := layerCore
	if withAire {
		fx.svc = b.Ctrl.Svc
	} else {
		fx.svc = b.Handler.(*harness.BareRunner).Svc
		layer = layerBare
	}
	// A fixed application clock, as harness.NewAskbotScenario uses: the
	// time a post records is logged, so a run that crossed a second
	// boundary would otherwise store a few bytes more or less.
	fx.svc.TimeSource = func() int64 { return 1_380_000_000 }
	if tr != nil {
		fx.handler = tracedHandler{inner: b.Handler, svc: "askbot", layer: layer, t: tr}
	}
	for i := 0; i < askbotSeedQuestions; i++ {
		if err := fx.ask(gen.ask()); err != nil {
			return nil, fmt.Errorf("seed question: %w", err)
		}
	}
	return fx, nil
}

func (fx *askbotFixture) ask(a askOp) error {
	resp := fx.handler.HandleWire("", askRequest(fx.bench.Session, a))
	if !resp.OK() {
		return fmt.Errorf("ask: %d %s", resp.Status, resp.Body)
	}
	fx.asked++
	return nil
}

func (fx *askbotFixture) read() error {
	resp := fx.handler.HandleWire("", wire.NewRequest("GET", "/questions"))
	if !resp.OK() {
		return fmt.Errorf("questions: %d %s", resp.Status, resp.Body)
	}
	return nil
}

// runAskbot is the in-process Table 4 workload: episodes on fresh
// fixtures, alternating Aire and bare (A,B,A,B) so that both see the same
// heap, the same GC state and the same inputs. Only the Aire episodes feed
// the gated metrics; the bare ones give bare_ops_per_s.
func runAskbot(write bool) func(runConfig) (*runResult, error) {
	episodeOps := askbotReadEpisode
	if write {
		episodeOps = askbotWriteEpisode
	}
	return func(cfg runConfig) (*runResult, error) {
		r := &runResult{}
		start := time.Now()
		aireOps := 0

		// episode runs up to limit ops on a fresh fixture, stopping early
		// when the window is over, and returns how many it ran. A bare
		// episode is given as many ops as the Aire episode before it.
		type side struct {
			gen   *generator
			clock int64
		}
		sides := map[bool]*side{true: {gen: newGenerator(cfg.seed)}, false: {gen: newGenerator(cfg.seed)}}
		episode := func(withAire bool, limit int) (int, error) {
			sd := sides[withAire]
			cfg.tr.record(false)
			// Collect the previous episode's fixture first, so that every
			// episode starts from the same heap and GC pacing.
			runtime.GC()
			t0 := time.Now()
			fx, err := newAskbotFixture(withAire, sd.gen, cfg.tr)
			if err != nil {
				return 0, err
			}
			if withAire {
				r.setupS = append(r.setupS, time.Since(t0).Seconds())
			}
			cfg.tr.record(withAire)
			before := storageOf([]*web.Service{fx.svc}, 0)
			var mem memDelta
			mem.start()
			done := 0
			for ; done < limit; done++ {
				if done%64 == 0 && time.Since(start) >= cfg.window {
					break
				}
				var a askOp
				if write {
					a = sd.gen.ask()
				}
				op := int64(aireOps + done)
				root := cfg.tr.beginOp("askbot", op)
				t0 := time.Now()
				if write {
					err = fx.ask(a)
				} else {
					err = fx.read()
				}
				lat := int64(time.Since(t0))
				cfg.tr.endOp(root, op)
				sd.clock += lat
				if withAire {
					r.attempted++
				}
				switch {
				case err != nil:
					r.fail("%v", err)
				case withAire:
					r.samples = append(r.samples, sample{end: sd.clock, lat: lat})
				default:
					r.bare = append(r.bare, sample{end: sd.clock, lat: lat})
				}
			}
			if withAire {
				mem.stop(r)
				grown := storageOf([]*web.Service{fx.svc}, 0).sub(before)
				r.stored.logBytes += grown.logBytes
				r.stored.dbBytes += grown.dbBytes
				r.indexBytes = indexBytesOf([]*web.Service{fx.svc})
			}
			if got := len(fx.svc.Store.IDs(askbot.ModelQuestion)); got != fx.asked {
				r.fail("askbot holds %d questions, %d were asked", got, fx.asked)
			}
			return done, nil
		}

		for !cfg.done(start, aireOps) {
			limit := episodeOps
			if cfg.maxOps > 0 && cfg.maxOps-aireOps < limit {
				limit = cfg.maxOps - aireOps
			}
			n, err := episode(true, limit)
			if err != nil {
				return nil, err
			}
			aireOps += n
			if _, err := episode(false, n); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
}

// ---- repair.askbot ---------------------------------------------------

// runRepairAskbot is the in-process Table 5 workload: the paper's Askbot
// attack with legitimate traffic around it (untimed, per episode), then
// the timed op: repair from the OAuth provider until all three services
// have settled. Its inputs are the paper's fixed scenario; the seed does
// not vary them.
func runRepairAskbot(cfg runConfig) (*runResult, error) {
	r := &runResult{}
	var clock int64
	start := time.Now()
	for !cfg.done(start, r.attempted) {
		cfg.tr.record(false)
		t0 := time.Now()
		s, err := harness.NewAskbotScenario(repairUsers, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		var ctrls []*core.Controller
		var svcs []*web.Service
		for name, c := range s.TB.Ctrls {
			ctrls = append(ctrls, c)
			svcs = append(svcs, c.Svc)
			if cfg.tr != nil {
				s.TB.Bus.Register(name, tracedHandler{inner: c, svc: name, layer: layerCore, t: cfg.tr})
			}
		}
		if err := s.PreRegister(repairUsers); err != nil {
			return nil, err
		}
		if err := s.RunAttack(); err != nil {
			return nil, err
		}
		if err := s.RunLegitTraffic(repairUsers, repairPosts); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())

		before := countersOf(ctrls, s.OAuth)
		var mem memDelta
		mem.start()
		cfg.tr.record(true)
		op := int64(r.attempted)
		root := cfg.tr.beginOp("repair", op)
		t1 := time.Now()
		err = s.Repair()
		lat := int64(time.Since(t1))
		cfg.tr.endOp(root, op)
		cfg.tr.record(false)
		mem.stop(r)
		r.addCounters(before, countersOf(ctrls, s.OAuth))
		clock += lat
		r.attempted++
		if problems := s.Verify(); err != nil || len(problems) > 0 {
			r.fail("repair: %v %v", err, problems)
			continue
		}
		r.samples = append(r.samples, sample{end: clock, lat: lat})
		// What one repaired episode leaves stored, attack and repair
		// included: the repair alone can shrink the store (rollback), so
		// its own delta is not a cost.
		st := storageOf(svcs, 0)
		r.stored.logBytes += st.logBytes
		r.stored.dbBytes += st.dbBytes
		r.indexBytes = indexBytesOf(svcs)
	}
	return r, nil
}

// workload names one benchmark workload and why it exists.
type workload struct {
	name string
	// entry is the service the benchmark's client talks to.
	entry string
	why   string
	run   func(runConfig) (*runResult, error)
}

var workloads = []workload{
	{"put.aire", hubName, "integrated normal path: transport, core, web, vdb, repairlog and WAL fsync all block each mirror put", runPut(true)},
	{"put.bare", hubName, "the same app, topology and HTTP path without Aire: the paper's denominator; core/wal/warp changes must not move it", runPut(false)},
	{"askbot.read", "askbot", "in-process Table 4 read: vdb scans and a 500-dependency repairlog append do the work; transport and wal idle", runAskbot(false)},
	{"askbot.write", "askbot", "in-process Table 4 write: vdb puts and repairlog appends, so a scan index that taxes writes shows here", runAskbot(true)},
	{"repair.wave", hubName, "the title path: warp, outgoing queue, pump, transport and peer inbox until 99 carriers converge on 3 peers", runWave},
	{"repair.askbot", "oauth", "in-process Table 5: local re-execution dominates, pump/transport/wal idle; the complement of repair.wave", runRepairAskbot},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
