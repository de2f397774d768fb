package harness

// Deterministic fault-injection simulation (the §3.3 convergence argument
// as a searchable seed space). One seed fully determines a run: the
// workload, which requests are attacked and how they are repaired, every
// injected fault (via internal/simnet), every partition window, and every
// crash-restart point. The oracle is the paper's correctness claim: after
// repair propagates through the unreliable fabric and the system
// quiesces, every service's state must equal a fault-free reference
// re-execution of the same workload with the attacks removed (cancels) or
// corrected in place (replaces).
//
// Faults apply to the repair plane only (see simnet): the live workload
// runs clean in both worlds, so any divergence is the repair protocol's
// fault, not the workload's.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"aire/internal/core"
	"aire/internal/dsched"
	"aire/internal/obs"
	"aire/internal/orm"
	"aire/internal/persist"
	"aire/internal/simnet"
	"aire/internal/transport"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// SimConfig parameterizes one simulation run. The zero value of every
// field except Seed is replaced by a sensible default.
type SimConfig struct {
	// Seed determines the entire run.
	Seed int64
	// Services is how many Aire services to stand up (≥ 2).
	Services int
	// Shards partitions every attacked-world service into N shard
	// controllers — each with its own store, repair log, dedup inbox,
	// pump, WAL and recovery. Every service, at every N and in both
	// worlds, sits behind a core.ShardedController router registered
	// under the base name; 0 means 1, and N = 1 is the one-shard case of
	// that path. The golden world always runs one shard per service: the
	// oracle then states that converged state is shard-count-invariant.
	Shards int
	// Topology is "chain" (s0 → s1 → … , each put forwarded downstream) or
	// "fanout" (s0 mirrors every put to all other services).
	Topology string
	// Ops is the number of workload steps (puts/gets/scans via s0).
	Ops int
	// Repairs is how many attacked puts are repaired (Cancel or Replace),
	// capped by the number of puts the workload happens to contain.
	Repairs int
	// Rerepairs is how many of the replace-repaired puts receive a second,
	// later replacement (repair-of-repair). Successive repairs of the same
	// request supersede one another in the outgoing queue, so this is the
	// workload that puts superseded content on the wire — the
	// stale-redelivery hazard a delayed fault turns into a regression
	// unless generations gate application.
	Rerepairs int
	// Creates is how many repair `create` operations the schedule issues:
	// each inserts a new non-idempotent /add request into the head
	// service's past, which propagates downstream as wire-level creates —
	// the operation a duplicated delivery double-mints unless the dedup
	// inbox re-acknowledges it.
	Creates int
	// DisableDedup turns off every service's exactly-once dedup inbox
	// (core.Faults.DisableDedup), restoring the at-least-once
	// behavior. Hazard-demonstration tests use it to show the stale and
	// dupcreate profiles genuinely fire their fault.
	DisableDedup bool
	// Obs attaches one shared observability registry (internal/obs) to the
	// attacked world: every controller records metrics and wave spans into
	// it, crash-restarted incarnations re-attach it (the registry lives in
	// the world's controller config), and the run's SimResult carries the
	// reconstructed WaveStats plus a final metrics snapshot.
	// Instrumentation is digest-neutral: a ScheduledPump seed produces
	// byte-identical SchedTrace/StateDigest with Obs on or off.
	Obs bool
	// ScheduledPump runs the attacked world's repair delivery on the real
	// background pump (core.StartPump) instead of the serial Flush loop,
	// with every pump loop, delivery worker, and the workload itself
	// multiplexed as cooperative tasks of a deterministic scheduler
	// (internal/dsched): a seeded rng picks the next runnable task at
	// every yield point, and backoff sleeps elapse on the virtual clock.
	// The run explores concurrent pump interleavings — supersedes landing
	// mid-delivery, workers of different services overlapping, shutdown
	// racing claims — while remaining a pure function of the seed.
	ScheduledPump bool
	// killCrashes makes every crash event a scheduler task kill instead of
	// a graceful pump shutdown (ScheduledPump only): the crashed
	// service's pump and delivery-worker tasks are killed at whatever
	// yield point they are parked — mid-pass, claims in flight, deferred
	// cleanup never run — and the service is rebuilt purely from durable
	// state. The stopPump path models a clean restart between delivery
	// passes; this models the crash landing inside the claim window.
	killCrashes bool
	// faultUngatedReconcile injects the historical (pre-PR-1) pump bug:
	// reconcile without the per-message generation gate, so a message
	// superseded while its old content is in flight is dropped as
	// delivered. Regression tests set it to prove the deterministic
	// scheduler rediscovers the race on a fixed seed.
	faultUngatedReconcile bool
	// linearScan runs every repair engine, crash-restarted incarnations
	// included, on the reference full-timeline walk
	// (warp.Engine.LinearScan). The index-equivalence tests run each seed
	// both ways and require identical results.
	linearScan bool
	// suppressReoffer stops every sender stamping Aire-Reoffer
	// (core.Faults.SuppressReoffer): gaps are still NACKed and retried, but
	// nothing marks the retry as recovery traffic. The lostwave teeth test
	// sets it to prove convergence under that profile is the re-offer
	// path's doing.
	suppressReoffer bool
	// inspect, when non-nil, is called with the attacked world after it
	// quiesces (before the golden run), with no requests in flight; the
	// equivalence tests use it to cross-check the secondary indexes
	// against their linear-scan references on an organically grown state.
	inspect func(w *simWorld)
	// Faults are the per-call repair-plane fault probabilities.
	Faults simnet.FaultPlan
	// PartitionRate is the per-step probability of starting a partition (a
	// random bipartition of the services, healed a few steps later).
	PartitionRate float64
	// CrashRate is the per-step probability of crash-restarting a random
	// service mid-repair. Every attacked-world service runs on an on-disk
	// write-ahead log (internal/wal); a crash discards the controller AND
	// its in-memory state and rebuilds it from checkpoint + WAL replay
	// (persist.Recover). Every other crash of a given service also writes a
	// checkpoint and truncates the replayed segments, so later recoveries
	// exercise the snapshot-plus-tail path, not just pure replay.
	CrashRate float64
	// WALFsync is the fsync policy ("every", "interval", "none"; default
	// "none": a process kill keeps buffered appends, so only WALPowerLoss
	// interacts with the sync schedule). Under "every" a power-loss crash
	// loses no committed state; under "none" the whole unsynced tail is
	// lost — the fsync-lag durability tests assert both.
	WALFsync string
	// WALInterval is the commit count between fsyncs under "interval".
	WALInterval int
	// WALPowerLoss makes each crash a power failure: the WAL's unsynced
	// tail is truncated (wal.Writer.CrashLose) before recovery. Without it
	// the crash is a process kill — buffered appends survive the way the
	// OS page cache outlives a dead process.
	WALPowerLoss bool
	// MaxRounds bounds the post-workload quiesce loop.
	MaxRounds int
}

func (cfg SimConfig) withDefaults() SimConfig {
	if cfg.Services < 2 {
		cfg.Services = 3
	}
	if cfg.Topology == "" {
		cfg.Topology = "chain"
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 30
	}
	if cfg.Repairs <= 0 {
		cfg.Repairs = 3
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 100
	}
	if cfg.WALFsync == "" {
		cfg.WALFsync = "none"
	}
	return cfg
}

// SimResult reports one simulation run. Two runs of the same SimConfig are
// identical in every field — the determinism tests rely on it.
type SimResult struct {
	Seed           int64
	Ops            int
	RepairCount    int
	CreateCount    int
	CrashCount     int
	PartitionCount int
	// Rounds is how many quiesce rounds the repair plane needed after the
	// workload finished.
	Rounds int
	// FaultCounts counts injected faults by class; Trace is the full fault
	// schedule (reproducing a failing seed reproduces it verbatim).
	FaultCounts map[string]int
	Trace       []string
	// Failures lists oracle violations; Passed means none.
	Failures []string
	Passed   bool
	// SchedSteps and SchedTrace report the deterministic scheduler's run
	// (ScheduledPump only): how many scheduling steps executed, and which
	// task ran at each. A failing seed's schedule replays verbatim.
	SchedSteps int
	SchedTrace []string
	// InboxHighWater is the largest per-origin dedup-inbox entry count any
	// service's final incarnation reached — the memory bound the vector
	// compaction tests assert on. Deterministic per seed; not part of
	// StateDigest.
	InboxHighWater int
	// OracleDigest fingerprints ONLY the converged per-service state (the
	// union of shard states under a sharded run), excluding the fault and
	// task schedules. A passing run's OracleDigest is therefore
	// shard-count-invariant — the TestShardInvariantDigest property —
	// while StateDigest stays the full run identity (schedule included),
	// which legitimately differs across shard counts.
	OracleDigest uint64
	// StateDigest fingerprints the converged state plus the fault schedule
	// (and, under ScheduledPump, the task schedule).
	StateDigest uint64
	// WaveStats reconstructs each repair wave's propagation — origin, max
	// hop depth, per-hop latency — purely from the Aire-Trace-* context
	// the spans carried (Obs runs only). Latencies are clock durations, so
	// WaveStats stays out of StateDigest.
	WaveStats []obs.WaveStat
	// ObsMetrics is the registry's final snapshot (Obs runs only).
	ObsMetrics *obs.Snapshot
}

// simOp is one workload step.
type simOp struct {
	kind int // 0 put, 1 get, 2 sum, 3 add (golden-world created requests)
	key  string
	val  string // put: value; add: delta
}

// simRepair repairs the put at op index opIdx: cancel it, or replace its
// value with newVal.
type simRepair struct {
	opIdx  int
	cancel bool
	newVal string
}

// simCreate inserts a new /add request into the head service's past at
// schedule step `step`, anchored after the put at op index `anchor`. Keys
// are unique per create and disjoint from the put key space, so the final
// state is position-independent — but /add is not idempotent, so a
// double-applied create diverges.
type simCreate struct {
	anchor int
	step   int
	key    string
	delta  string
}

// simEvent is one step of the generated schedule.
type simEvent struct {
	kind   int // event kinds below
	op     int // evExec: op index
	repair simRepair
	create int        // evCreate: index into the creates list
	crash  string     // evCrash: service to crash-restart
	groups [][]string // evPartition
}

const (
	evExec = iota
	evRepair
	evCreate
	evCrash
	evPartition
	evHeal
)

const (
	simFrozenTime   = int64(1_380_000_000)
	simClockStart   = int64(1_700_000_000)
	simPulseStep    = 25 * time.Millisecond
	simPartitionMin = 2 // partition duration in steps
	simPartitionVar = 4
)

// simApp is the workload application: a key-value service that forwards
// every write downstream and echoes the stored value in its response, so
// Replace repairs change responses and exercise the replace_response
// notify/fetch handshake across the faulted fabric, not just the repair
// call path.
type simApp struct {
	name  string
	peers []string
}

func (a *simApp) Name() string                        { return a.name }
func (a *simApp) Authorize(ac core.AuthzRequest) bool { return true }

func (a *simApp) Register(svc *web.Service) {
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/put", func(c *web.Ctx) wire.Response {
		if err := c.DB.Put("kv", c.Form("key"), orm.Fields("val", c.Form("val"))); err != nil {
			return c.Error(500, err.Error())
		}
		for _, p := range a.peers {
			c.Call(p, wire.NewRequest("POST", "/put").
				WithForm("key", c.Form("key"), "val", c.Form("val")))
		}
		return c.OK(c.Form("val"))
	})
	// /add is deliberately *not* idempotent: it increments the stored
	// value by delta and forwards the delta downstream. Created requests
	// use it so a duplicate-create (a re-delivered create whose first
	// response was lost minting a second synthetic request) is visible to
	// the state oracle — a double-applied put would converge anyway.
	svc.Router.Handle("POST", "/add", func(c *web.Ctx) wire.Response {
		cur := 0
		if o, ok := c.DB.Get("kv", c.Form("key")); ok {
			cur, _ = strconv.Atoi(o.Get("val"))
		}
		d, _ := strconv.Atoi(c.Form("delta"))
		val := strconv.Itoa(cur + d)
		if err := c.DB.Put("kv", c.Form("key"), orm.Fields("val", val)); err != nil {
			return c.Error(500, err.Error())
		}
		for _, p := range a.peers {
			c.Call(p, wire.NewRequest("POST", "/add").
				WithForm("key", c.Form("key"), "delta", c.Form("delta")))
		}
		return c.OK(val)
	})
	svc.Router.Handle("GET", "/get", func(c *web.Ctx) wire.Response {
		o, ok := c.DB.Get("kv", c.Form("key"))
		if !ok {
			return c.Error(404, "missing")
		}
		return c.OK(o.Get("val"))
	})
	svc.Router.Handle("GET", "/sum", func(c *web.Ctx) wire.Response {
		out := ""
		for _, o := range c.DB.List("kv") {
			out += o.ID + "=" + o.Get("val") + ";"
		}
		return c.OK(out)
	})
}

// simWorld is one set of services: the attacked world runs on a simnet
// fault layer, the golden world directly on a clean bus.
type simWorld struct {
	bus   *transport.Bus
	net   core.Caller
	sim   *simnet.Net // nil in the golden world
	clock *simnet.Clock
	ccfg  core.Config
	// faults and linearScan are installed on every controller the world
	// stands up, crash-restarted incarnations included.
	faults     core.Faults
	linearScan bool
	apps       map[string]*simApp
	ctrls      map[string]*core.Controller
	order      []string

	// Sharding (SimConfig.Shards; the golden world has one shard per
	// service). order keeps the base service names; cnames lists every
	// controller (shard) name in deterministic order, and every loop below
	// that drives controllers iterates it. routers maps each base name to
	// its ShardedController, registered on the bus under the base name so
	// live traffic routes by key.
	topo    *core.ShardTopology
	cnames  []string
	routers map[string]*core.ShardedController

	// Observability (SimConfig.Obs; attacked world only). The registry is
	// shared by every controller incarnation, so spans recorded before a
	// crash and after its recovery land in one ring.
	obs *obs.Registry

	// Scheduled-pump mode (SimConfig.ScheduledPump; attacked world only).
	sched       *dsched.Sched
	rootCtx     context.Context
	rootCancel  context.CancelFunc
	pumpCancel  map[string]context.CancelFunc
	killCrashes bool

	// Durable state (attacked world only): a temp directory, removed when
	// the run ends, holding one WAL+checkpoint directory per controller.
	walBase      string
	walOpts      wal.Options
	walPowerLoss bool
	walWriters   map[string]*wal.Writer
	walCrashes   map[string]int
}

// closeWAL closes every writer and removes the temp directory.
func (w *simWorld) closeWAL() {
	for _, wr := range w.walWriters {
		wr.Close()
	}
	os.RemoveAll(w.walBase)
}

// buildSimWorld stands up the services. The attacked (faulted) world puts
// every controller on an on-disk write-ahead log under a fresh temp
// directory, attached via persist.Recover (a no-op recovery on the empty
// directory); the caller must closeWAL it.
func buildSimWorld(cfg SimConfig, faulted bool) (*simWorld, error) {
	w := &simWorld{
		bus:        transport.NewBus(),
		clock:      simnet.NewClock(simClockStart),
		linearScan: cfg.linearScan,
		apps:       map[string]*simApp{},
		ctrls:      map[string]*core.Controller{},
		routers:    map[string]*core.ShardedController{},
		topo:       core.NewShardTopology(),
	}
	if faulted {
		// Any deterministic derivation works; keep the fault stream
		// distinct from the workload generator's.
		w.sim = simnet.New(w.bus, cfg.Seed*2+1, cfg.Faults)
		w.net = w.sim
	} else {
		w.net = w.bus
	}
	ccfg := core.DefaultConfig()
	ccfg.Clock = w.clock.Now
	w.faults = core.Faults{DisableDedup: cfg.DisableDedup, SuppressReoffer: cfg.suppressReoffer,
		UngatedReconcile: cfg.faultUngatedReconcile}
	if faulted && cfg.Obs {
		w.obs = obs.New(obs.DefaultRingCap)
		ccfg.Obs = w.obs
	}
	ccfg.Topology = w.topo
	if faulted {
		// Every attacked run verifies vdb/repairlog index coherence at
		// repair-wave start (pure reads under the lock — digest-neutral).
		w.faults.StrictIndexes = true
	}
	if faulted && cfg.ScheduledPump {
		// A third seed stream drives the task schedule; the pump paces on
		// the virtual clock, one pulse step per interval.
		w.sched = dsched.New(cfg.Seed*3+2, w.clock)
		ccfg.Sched = w.sched
		w.rootCtx, w.rootCancel = context.WithCancel(context.Background())
		w.pumpCancel = map[string]context.CancelFunc{}
		w.killCrashes = cfg.killCrashes
	}
	w.ccfg = ccfg

	for i := 0; i < cfg.Services; i++ {
		w.order = append(w.order, fmt.Sprintf("s%d", i))
		if faulted {
			w.topo.SetShards(w.order[i], cfg.Shards)
		}
	}
	for i, name := range w.order {
		var peers []string
		if cfg.Topology == "fanout" {
			if i == 0 {
				peers = append(peers, w.order[1:]...)
			}
		} else if i+1 < len(w.order) { // chain
			peers = []string{w.order[i+1]}
		}
		// Peers are base names: a forwarded write reaches the peer's
		// router, which routes it by key; the repair carriers it later
		// spawns resolve the owning shard themselves (peerDest).
		shards := make([]*core.Controller, w.topo.Shards(name))
		for s, cname := range w.shardNames(name) {
			w.apps[cname] = &simApp{name: cname, peers: peers}
			w.cnames = append(w.cnames, cname)
			shards[s] = w.addController(cname)
		}
		w.routers[name] = core.NewShardedController(name, w.topo, shards)
		w.bus.Register(name, w.routers[name])
	}
	if !faulted {
		return w, nil
	}
	pol, err := wal.ParsePolicy(cfg.WALFsync)
	if err != nil {
		return nil, err
	}
	w.walOpts = wal.Options{Policy: pol, Interval: cfg.WALInterval}
	w.walPowerLoss = cfg.WALPowerLoss
	if w.walBase, err = os.MkdirTemp("", "airesim-wal-"); err != nil {
		return nil, fmt.Errorf("sim: wal dir: %w", err)
	}
	w.walWriters = map[string]*wal.Writer{}
	w.walCrashes = map[string]int{}
	for _, name := range w.cnames {
		wr, err := persist.Recover(w.ctrls[name], filepath.Join(w.walBase, name), w.walOpts)
		if err != nil {
			w.closeWAL()
			return nil, fmt.Errorf("sim: wal init %s: %w", name, err)
		}
		w.walWriters[name] = wr
	}
	return w, nil
}

// shardNames lists base's controller names in shard order ("s0#0", "s0#1",
// …; just "s0" for a one-shard service).
func (w *simWorld) shardNames(base string) []string {
	names := make([]string, w.topo.Shards(base))
	for i := range names {
		names[i] = w.topo.ShardName(base, i)
	}
	return names
}

// addController stands up (or replaces, after a crash) the named shard's
// controller. A shard of a partitioned service is also registered under its
// own name, so repair-plane peers can address it directly; a one-shard
// service's shard shares the base name, which its router owns.
func (w *simWorld) addController(name string) *core.Controller {
	c := core.NewController(w.apps[name], w.net, w.ccfg)
	c.InjectFaults(w.faults)
	c.Engine.LinearScan = w.linearScan
	c.Svc.TimeSource = func() int64 { return simFrozenTime }
	if wire.ShardBaseName(name) != name {
		w.bus.Register(name, c)
	}
	w.ctrls[name] = c
	return c
}

// startPump starts the named controller's background pump as a scheduled
// task (ScheduledPump mode only).
func (w *simWorld) startPump(name string) error {
	ctx, cancel := context.WithCancel(w.rootCtx)
	if err := w.ctrls[name].StartPump(ctx); err != nil {
		cancel()
		return fmt.Errorf("sim: start pump on %s: %w", name, err)
	}
	w.pumpCancel[name] = cancel
	return nil
}

// stopPump cancels the named controller's pump and waits its tasks out —
// by yielding when called from inside a scheduled task (the workload's
// crash events), by stepping the scheduler when called from the driver.
func (w *simWorld) stopPump(name string) {
	cancel := w.pumpCancel[name]
	if cancel == nil {
		return
	}
	delete(w.pumpCancel, name)
	cancel()
	for w.ctrls[name].PumpRunning() {
		if w.sched.InTask() {
			w.sched.Yield()
		} else if w.sched.RunUntilIdle() == 0 {
			// A cancelled pump is always runnable; no progress means a
			// scheduler bug — fail loudly with the seed-reproducible state.
			panic(fmt.Sprintf("sim: pump on %s will not stop (scheduler idle)", name))
		}
	}
}

// killService crash-kills the named service's scheduler tasks: its pump
// loop and every delivery worker are killed at whatever yield point they
// are parked — including inside the claim window, deliveries sent but not
// reconciled — and never resume, so no deferred cleanup runs (dsched.Kill
// models a crash, not an unwind). The caller must discard the controller
// and rebuild from durable state: the killed incarnation's in-memory queue
// still carries inflight claim flags no worker will ever release.
func (w *simWorld) killService(name string) {
	pump := "pump:" + name
	workers := "worker:" + name + "->"
	for _, ti := range w.sched.Parked() {
		if ti.Name == pump || strings.HasPrefix(ti.Name, workers) {
			w.sched.Kill(ti.ID)
		}
	}
	if cancel := w.pumpCancel[name]; cancel != nil {
		delete(w.pumpCancel, name)
		cancel()
	}
}

// crashRestart simulates a crash of a base service: a crash fells the
// whole host, so every shard goes down and comes back together. The live
// state is genuinely thrown away — the crash is a power failure (the WAL's
// unsynced tail is truncated) or a process kill (buffered appends survive)
// — and each fresh controller is rebuilt purely from disk: latest
// checkpoint plus WAL replay. Teardown and bookkeeping are serial (they
// touch the bus, the scheduler, and the world's maps); only the recovery
// itself runs in parallel across shards (persist.RecoverShards — pure
// replay, no scheduler involvement). Under ScheduledPump the pump is torn
// down first and restarted on the rebuilt controller.
func (w *simWorld) crashRestart(base string) error {
	names := w.shardNames(base)
	if w.sched != nil {
		for _, name := range names {
			if w.killCrashes {
				w.killService(name)
			} else {
				w.stopPump(name)
			}
		}
	}
	fresh := make([]*core.Controller, len(names))
	dirs := make([]string, len(names))
	for i, name := range names {
		if err := w.ctrls[name].WALError(); err != nil {
			return fmt.Errorf("sim: %s had a wal append error before its crash: %w", name, err)
		}
		old := w.ctrls[name].DetachWAL()
		if w.walPowerLoss {
			if _, err := old.CrashLose(); err != nil {
				return fmt.Errorf("sim: power-loss crash %s: %w", name, err)
			}
		} else if err := old.Close(); err != nil {
			return fmt.Errorf("sim: crash %s: %w", name, err)
		}
		fresh[i] = w.addController(name)
		dirs[i] = filepath.Join(w.walBase, name)
	}
	writers, err := persist.RecoverShards(fresh, dirs, w.walOpts)
	if err != nil {
		return fmt.Errorf("sim: wal recovery %s: %w", base, err)
	}
	for i, name := range names {
		w.walWriters[name] = writers[i]
		w.walCrashes[name]++
		// Every other crash of a service, the recovered incarnation
		// compacts: checkpoint, truncate replayed segments, delete the
		// superseded checkpoint — so its NEXT crash recovers from
		// snapshot + tail rather than pure replay.
		if w.walCrashes[name]%2 == 0 {
			if _, err := persist.CheckpointAndTruncate(fresh[i], writers[i], dirs[i]); err != nil {
				return fmt.Errorf("sim: checkpoint %s: %w", name, err)
			}
		}
	}
	for i, name := range names {
		w.routers[base].SetShard(i, w.ctrls[name])
	}
	if w.sched != nil {
		for _, name := range names {
			if err := w.startPump(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// execOp performs one workload step through the head service, returning
// the assigned request ID for puts.
func (w *simWorld) execOp(op simOp) (string, error) {
	head := w.order[0]
	switch op.kind {
	case 0:
		resp, err := w.net.Call("", head, wire.NewRequest("POST", "/put").
			WithForm("key", op.key, "val", op.val))
		if err != nil {
			return "", fmt.Errorf("sim: put on %s: %w", head, err)
		}
		return resp.Header[wire.HdrRequestID], nil
	case 1:
		_, err := w.net.Call("", head, wire.NewRequest("GET", "/get").WithForm("key", op.key))
		return "", err
	case 3:
		// Only the golden world executes /add as live traffic: it is the
		// reference position of a created request.
		_, err := w.net.Call("", head, wire.NewRequest("POST", "/add").
			WithForm("key", op.key, "delta", op.val))
		return "", err
	default:
		_, err := w.net.Call("", head, wire.NewRequest("GET", "/sum"))
		return "", err
	}
}

// pulse runs one delivery round: one Flush per service in deterministic
// order, then one simnet Tick (delayed deliveries). Returns how much
// happened.
func (w *simWorld) pulse() int {
	progress := 0
	for _, name := range w.cnames {
		d, _ := w.ctrls[name].Flush()
		progress += d
	}
	if w.sim != nil {
		progress += w.sim.Tick()
	}
	return progress
}

func (w *simWorld) queued() int {
	n := 0
	for _, name := range w.cnames {
		n += w.ctrls[name].QueueLen()
	}
	return n
}

func (w *simWorld) heldMessages() []string {
	var held []string
	for _, name := range w.cnames {
		for _, p := range w.ctrls[name].Pending() {
			if p.Held {
				held = append(held, fmt.Sprintf("%s: %s (%s to %s): %s", name, p.MsgID, p.Msg.Kind, p.Msg.Target, p.LastErr))
			}
		}
	}
	return held
}

// mergedKVState is the union of base's shard states — the whole service's
// kv contents as a client sees them through the router. A key stored on
// two shards is a shard-map violation and fails loudly.
func (w *simWorld) mergedKVState(base string) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range w.shardNames(base) {
		for k, v := range kvState(w.ctrls[name]) {
			if prev, dup := out[k]; dup {
				return nil, fmt.Errorf("%s: key %s present on two shards (%q and %q)", base, k, prev, v)
			}
			out[k] = v
		}
	}
	return out, nil
}

// kvState flattens one service's live kv contents.
func kvState(c *core.Controller) map[string]string {
	out := map[string]string{}
	for _, id := range c.Svc.Store.IDs("kv") {
		if v, ok := c.Svc.Store.Get(vdb.Key{Model: "kv", ID: id}); ok {
			out[id] = v.Fields["val"]
		}
	}
	return out
}

func stateLines(name string, st map[string]string) []string {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys))
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("%s|%s=%s", name, k, st[k]))
	}
	return lines
}

// buildSchedule generates the deterministic workload + fault schedule for
// a seed.
func buildSchedule(cfg SimConfig) ([]simEvent, []simOp, []simCreate) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	ops := make([]simOp, cfg.Ops)
	var putIdx []int
	for i := range ops {
		key := fmt.Sprintf("k%d", rng.Intn(5))
		switch r := rng.Float64(); {
		case r < 0.6:
			ops[i] = simOp{kind: 0, key: key, val: fmt.Sprintf("v%d", rng.Intn(10000))}
			putIdx = append(putIdx, i)
		case r < 0.8:
			ops[i] = simOp{kind: 1, key: key}
		default:
			ops[i] = simOp{kind: 2}
		}
	}

	// Attack repairs: distinct puts, each repaired once, at a step at or
	// after the put executes.
	repairAt := map[int][]simRepair{}
	repaired := map[int]bool{}
	type firstRepair struct {
		target, step int
		cancel       bool
	}
	var first []firstRepair
	nRepairs := cfg.Repairs
	if nRepairs > len(putIdx) {
		nRepairs = len(putIdx)
	}
	for _, pi := range rng.Perm(len(putIdx))[:nRepairs] {
		target := putIdx[pi]
		step := target + rng.Intn(cfg.Ops-target)
		rep := simRepair{opIdx: target, cancel: rng.Intn(2) == 0}
		if !rep.cancel {
			rep.newVal = fmt.Sprintf("r%d", rng.Intn(10000))
		}
		repairAt[step] = append(repairAt[step], rep)
		repaired[target] = true
		first = append(first, firstRepair{target: target, step: step, cancel: rep.cancel})
	}

	// Repair-of-repair: a second, later replacement of an already-replaced
	// put. The second repair supersedes the first in the sender's queue
	// (same collapse key), so a delayed copy of the first repair's content
	// can arrive after the second was applied — the stale-redelivery
	// hazard. The golden world uses whichever replacement the schedule
	// issues last.
	if cfg.Rerepairs > 0 {
		var cands []firstRepair
		for _, fr := range first {
			if !fr.cancel {
				cands = append(cands, fr)
			}
		}
		n := cfg.Rerepairs
		if n > len(cands) {
			n = len(cands)
		}
		for _, ci := range rng.Perm(len(cands))[:n] {
			fr := cands[ci]
			// The second repair lands within a few steps of the first, so a
			// delayed copy of the first repair's content is plausibly still
			// in the network when the superseding content is applied.
			gap := cfg.Ops - fr.step
			if gap > 5 {
				gap = 5
			}
			step := fr.step + rng.Intn(gap)
			rep := simRepair{opIdx: fr.target, newVal: fmt.Sprintf("rr%d", rng.Intn(10000))}
			repairAt[step] = append(repairAt[step], rep)
		}
	}

	// Creates: new /add requests inserted into the head's past, each on a
	// key of its own (disjoint from the put key space, so final state is
	// insertion-position-independent — /add's non-idempotence is what
	// exposes a double-applied create). Anchors are unrepaired puts so the
	// before_id anchor survives cancels.
	var creates []simCreate
	createAt := map[int][]int{}
	if cfg.Creates > 0 {
		var anchors []int
		for _, pi := range putIdx {
			if !repaired[pi] {
				anchors = append(anchors, pi)
			}
		}
		n := cfg.Creates
		if n > len(anchors) {
			n = len(anchors)
		}
		for i, ai := range rng.Perm(len(anchors))[:n] {
			anchor := anchors[ai]
			step := anchor + rng.Intn(cfg.Ops-anchor)
			creates = append(creates, simCreate{
				anchor: anchor,
				step:   step,
				key:    fmt.Sprintf("c%d", i),
				delta:  strconv.Itoa(1 + rng.Intn(9)),
			})
			createAt[step] = append(createAt[step], len(creates)-1)
		}
	}

	var events []simEvent
	healAt := -1
	for i := 0; i < cfg.Ops; i++ {
		if healAt == i {
			events = append(events, simEvent{kind: evHeal})
			healAt = -1
		}
		events = append(events, simEvent{kind: evExec, op: i})
		for _, rep := range repairAt[i] {
			events = append(events, simEvent{kind: evRepair, repair: rep})
		}
		for _, ci := range createAt[i] {
			events = append(events, simEvent{kind: evCreate, create: ci})
		}
		if cfg.CrashRate > 0 && rng.Float64() < cfg.CrashRate {
			events = append(events, simEvent{kind: evCrash, crash: fmt.Sprintf("s%d", rng.Intn(cfg.Services))})
		}
		if cfg.PartitionRate > 0 && healAt < 0 && rng.Float64() < cfg.PartitionRate {
			// Random bipartition with both sides non-empty.
			groups := [][]string{nil, nil}
			for s := 0; s < cfg.Services; s++ {
				g := rng.Intn(2)
				if s == 0 {
					g = 0
				} else if s == cfg.Services-1 {
					g = 1
				}
				groups[g] = append(groups[g], fmt.Sprintf("s%d", s))
			}
			events = append(events, simEvent{kind: evPartition, groups: groups})
			healAt = i + simPartitionMin + rng.Intn(simPartitionVar)
		}
	}
	return events, ops, creates
}

// applyEvent executes one schedule event against the attacked world,
// recording request IDs and repair decisions for the golden re-execution.
func (w *simWorld) applyEvent(ev simEvent, ops []simOp, creates []simCreate, res *SimResult, ids map[int]string, cancelled map[int]bool, replaced map[int]string) error {
	switch ev.kind {
	case evExec:
		id, err := w.execOp(ops[ev.op])
		if err != nil {
			return err
		}
		if id != "" {
			ids[ev.op] = id
		}
	case evRepair:
		rep := ev.repair
		id := ids[rep.opIdx]
		if id == "" {
			return fmt.Errorf("sim: repair target op %d has no request ID", rep.opIdx)
		}
		if rep.cancel {
			if _, err := w.routers[w.order[0]].ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: id}); err != nil {
				return fmt.Errorf("sim: cancel %s: %w", id, err)
			}
			cancelled[rep.opIdx] = true
		} else {
			newReq := wire.NewRequest("POST", "/put").
				WithForm("key", ops[rep.opIdx].key, "val", rep.newVal)
			if _, err := w.routers[w.order[0]].ApplyLocal(warp.Action{Kind: warp.ReplaceReq, ReqID: id, NewReq: newReq}); err != nil {
				return fmt.Errorf("sim: replace %s: %w", id, err)
			}
			replaced[rep.opIdx] = rep.newVal
		}
		res.RepairCount++
	case evCreate:
		cr := creates[ev.create]
		anchorID := ids[cr.anchor]
		if anchorID == "" {
			return fmt.Errorf("sim: create anchor op %d has no request ID", cr.anchor)
		}
		newReq := wire.NewRequest("POST", "/add").WithForm("key", cr.key, "delta", cr.delta)
		// before_id anchors the created request after an existing put;
		// with no after bound it lands at the end of the head's current
		// timeline, which is exactly where the golden world runs it. Under
		// sharding the anchor's ID names its owning shard, so the create
		// lands on — and cascades from — the shard that executed the put.
		if _, err := w.routers[w.order[0]].ApplyLocal(warp.Action{Kind: warp.CreateReq, NewReq: newReq, BeforeID: anchorID}); err != nil {
			return fmt.Errorf("sim: create %s: %w", cr.key, err)
		}
		res.CreateCount++
	case evCrash:
		if err := w.crashRestart(ev.crash); err != nil {
			return err
		}
		res.CrashCount++
	case evPartition:
		w.sim.Partition(ev.groups...)
		res.PartitionCount++
	case evHeal:
		w.sim.Heal()
	}
	return nil
}

// progressTally sums the quiesce progress signal across all services:
// terminal delivery outcomes plus receive-side exactly-once inbox commits,
// which move even when the delivery outcome never reaches the sender (a
// lost response). A backoff retry that fails again moves nothing and does
// not count.
func (w *simWorld) progressTally() int64 {
	var n int64
	for _, name := range w.cnames {
		st := w.ctrls[name].Stats()
		n += st.MsgsDelivered + st.MsgsFailed + st.InboxCommits
	}
	return n
}

// runScheduled executes the event schedule with repair delivery on the
// background pumps, every pump and worker a task of the deterministic
// scheduler, and the workload itself the task injecting events — so the
// seeded schedule interleaves workload steps (including supersedes and
// crash-restarts) *into* claim/deliver/reconcile windows, not just between
// delivery passes. Quiesce alternates scheduler drains with virtual-clock
// advances, then shuts every pump down; the run leaks no task.
func (w *simWorld) runScheduled(cfg SimConfig, events []simEvent, ops []simOp, creates []simCreate, res *SimResult, ids map[int]string, cancelled map[int]bool, replaced map[int]string) error {
	for _, name := range w.cnames {
		if err := w.startPump(name); err != nil {
			return err
		}
	}
	var runErr error
	done := false
	w.sched.Go("workload", func() {
		defer func() { done = true }()
		for _, ev := range events {
			if err := w.applyEvent(ev, ops, creates, res, ids, cancelled, replaced); err != nil {
				runErr = err
				return
			}
			w.sched.Yield() // pumps and workers interleave with the workload
			w.sim.Tick()    // delayed repair-plane deliveries land
			w.clock.Advance(simPulseStep)
			w.sched.Yield()
		}
	})
	w.sched.RunUntilIdle()
	if !done {
		panic(fmt.Sprintf("sim: seed %d: workload task parked with the scheduler idle", cfg.Seed))
	}
	if runErr != nil {
		w.rootCancel()
		w.sched.RunUntilIdle()
		return runErr
	}

	// Quiesce: heal the fabric, then drain the scheduler and elapse
	// virtual time until deliveries stop moving and nothing is queued or
	// held in the network.
	w.sim.Heal()
	last := w.progressTally()
	quiesced := false
	for ; res.Rounds < cfg.MaxRounds; res.Rounds++ {
		w.sched.RunUntilIdle()
		ticked := w.sim.Tick()
		w.sched.RunUntilIdle()
		cur := w.progressTally()
		progress := int(cur-last) + ticked
		last = cur
		w.clock.Advance(simPulseStep)
		if progress == 0 {
			if w.queued() == 0 && w.sim.HeldCount() == 0 {
				quiesced = true
				break
			}
			w.clock.Advance(core.BackoffMax) // elapse every retry window
		}
	}
	if !quiesced {
		res.Failures = append(res.Failures,
			fmt.Sprintf("did not quiesce after %d rounds: %d queued, %d held in network", res.Rounds, w.queued(), w.sim.HeldCount()))
	}

	// Tear the pumps down. Every task must exit: a stuck worker here is a
	// shutdown bug, reproducible from the seed.
	w.rootCancel()
	w.sched.RunUntilIdle()
	if live := w.sched.Live(); live != 0 {
		res.Failures = append(res.Failures,
			fmt.Sprintf("scheduler: %d tasks still live after pump shutdown", live))
	}
	res.SchedSteps = w.sched.Steps()
	res.SchedTrace = w.sched.Trace()
	return nil
}

// RunSim executes one simulation run: the attacked world under faults,
// then the golden reference, then the convergence oracle. The returned
// error reports harness-level breakage (a repair call that could not even
// be issued); oracle violations land in SimResult.Failures.
func RunSim(cfg SimConfig) (*SimResult, error) {
	cfg = cfg.withDefaults()
	events, ops, creates := buildSchedule(cfg)

	res := &SimResult{Seed: cfg.Seed, Ops: cfg.Ops}
	w, err := buildSimWorld(cfg, true)
	if err != nil {
		return nil, err
	}
	defer w.closeWAL()
	ids := map[int]string{}
	cancelled := map[int]bool{}
	replaced := map[int]string{}

	if cfg.ScheduledPump {
		if err := w.runScheduled(cfg, events, ops, creates, res, ids, cancelled, replaced); err != nil {
			return nil, err
		}
	} else {
		for _, ev := range events {
			if err := w.applyEvent(ev, ops, creates, res, ids, cancelled, replaced); err != nil {
				return nil, err
			}
			w.pulse()
			w.clock.Advance(simPulseStep)
		}

		// Quiesce: heal the fabric and pump until nothing moves and nothing
		// is queued or held in flight. Flush ignores retry windows, so no
		// clock advance beyond the pulse step is needed.
		w.sim.Heal()
		last := w.progressTally()
		quiesced := false
		for ; res.Rounds < cfg.MaxRounds; res.Rounds++ {
			moved := w.pulse()
			cur := w.progressTally()
			progress := moved + int(cur-last)
			last = cur
			w.clock.Advance(simPulseStep)
			if progress == 0 {
				if w.queued() == 0 && w.sim.HeldCount() == 0 {
					quiesced = true
					break
				}
			}
		}
		if !quiesced {
			res.Failures = append(res.Failures,
				fmt.Sprintf("did not quiesce after %d rounds: %d queued, %d held in network", res.Rounds, w.queued(), w.sim.HeldCount()))
		}
	}
	for _, h := range w.heldMessages() {
		res.Failures = append(res.Failures, "message parked (Held): "+h)
	}
	// A WAL append failure is a silent-durability-loss hazard: surface it as
	// an oracle failure even if the in-memory state happens to converge.
	for _, name := range w.cnames {
		if err := w.ctrls[name].WALError(); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: wal append error: %v", name, err))
		}
	}
	for _, name := range w.cnames {
		if hw := w.ctrls[name].InboxHighWater(); hw > res.InboxHighWater {
			res.InboxHighWater = hw
		}
	}
	if w.obs != nil {
		res.WaveStats = obs.Waves(w.obs.Ring().Spans())
		snap := w.obs.Snapshot()
		res.ObsMetrics = &snap
	}
	if cfg.inspect != nil {
		cfg.inspect(w)
	}

	// Golden reference: same workload on a clean fabric, attacks removed
	// (cancels) or corrected at their original position (replaces), and
	// created /add requests executed exactly once, as live traffic, at the
	// step the create was issued (the end of the head's timeline then —
	// where the attacked world's create anchors).
	createAt := map[int][]simCreate{}
	for _, cr := range creates {
		createAt[cr.step] = append(createAt[cr.step], cr)
	}
	g, err := buildSimWorld(cfg, false)
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		if v, ok := replaced[i]; ok {
			op.val = v
		}
		if !cancelled[i] {
			if _, err := g.execOp(op); err != nil {
				return nil, fmt.Errorf("sim: golden world: %w", err)
			}
		}
		for _, cr := range createAt[i] {
			if _, err := g.execOp(simOp{kind: 3, key: cr.key, val: cr.delta}); err != nil {
				return nil, fmt.Errorf("sim: golden world create: %w", err)
			}
		}
	}

	// The oracle: every service converged to the golden state. Under
	// sharding "the service's state" is the union of its shards' states —
	// a key present on two shards is itself an oracle failure (the shard
	// map was not respected), surfaced before the value comparison.
	digest := fnv.New64a()
	oracle := fnv.New64a()
	for _, name := range w.order {
		got, mergeErr := w.mergedKVState(name)
		if mergeErr != nil {
			res.Failures = append(res.Failures, mergeErr.Error())
			continue
		}
		want := kvState(g.ctrls[name])
		for _, line := range stateLines(name, got) {
			fmt.Fprintln(digest, line)
			fmt.Fprintln(oracle, line)
		}
		if len(got) != len(want) {
			res.Failures = append(res.Failures, fmt.Sprintf("%s diverged: got %v, want %v", name, got, want))
			continue
		}
		for k, v := range want {
			if got[k] != v {
				res.Failures = append(res.Failures, fmt.Sprintf("%s diverged at %s: got %q, want %q (full: got %v, want %v)", name, k, got[k], v, got, want))
				break
			}
		}
	}
	res.OracleDigest = oracle.Sum64()

	res.FaultCounts = w.sim.Counts()
	res.Trace = w.sim.Trace()
	for _, line := range res.Trace {
		fmt.Fprintln(digest, line)
	}
	// Under ScheduledPump the task schedule is part of the run's identity:
	// two runs of one seed must agree on every scheduling decision, not
	// just the converged state.
	fmt.Fprintln(digest, "sched-steps", res.SchedSteps)
	for _, line := range res.SchedTrace {
		fmt.Fprintln(digest, line)
	}
	res.StateDigest = digest.Sum64()
	res.Passed = len(res.Failures) == 0
	return res, nil
}

// simProfiles are the named fault classes the CI matrix sweeps. "mixed"
// composes everything; the others isolate one class so a regression names
// its fault.
var simProfiles = map[string]SimConfig{
	"drop":      {Services: 3, Topology: "chain", Faults: simnet.FaultPlan{Drop: 0.3}},
	"duplicate": {Services: 3, Topology: "chain", Faults: simnet.FaultPlan{Duplicate: 0.3, DropResponse: 0.2}},
	"delay":     {Services: 3, Topology: "chain", Faults: simnet.FaultPlan{Delay: 0.35}},
	"partition": {Services: 4, Topology: "fanout", PartitionRate: 0.2},
	// crash: power-loss crash-restarts against the on-disk WAL with
	// fsync-every-commit — the durability gate. Recovery is checkpoint +
	// WAL replay of genuinely persisted bytes (the in-memory state is
	// discarded, and CrashLose drops anything unsynced); with fsync=every
	// nothing is unsynced, so zero committed state may be lost. Run with
	// -fsync none to watch the tail genuinely disappear.
	"crash": {Services: 3, Topology: "chain", CrashRate: 0.12,
		WALFsync: "every", WALPowerLoss: true},
	// fsynclag: deferred fsync (every 4th commit) under process crashes —
	// the fsync-lag fault class. A process kill keeps buffered appends (the
	// page cache outlives the process), so recovery still loses nothing;
	// only power loss (the crash profile) interacts with the sync schedule.
	"fsynclag": {Services: 3, Topology: "chain", CrashRate: 0.15,
		WALFsync: "interval", WALInterval: 4,
		Faults: simnet.FaultPlan{Drop: 0.1, DropResponse: 0.1}},
	"mixed": {Services: 4, Topology: "fanout", PartitionRate: 0.08, CrashRate: 0.05,
		Faults: simnet.FaultPlan{Drop: 0.15, DropResponse: 0.1, Duplicate: 0.1, Delay: 0.15}},
	// stale: repair-of-repair workloads under multi-tick delay faults put
	// a delayed copy of superseded repair content on the wire after the
	// sender's retries delivered the newer content. Wire generations
	// (Aire-Generation) plus the dedup inbox discard the old copy; without
	// them the peer regresses (run with -nodedup / SimConfig.DisableDedup
	// to watch it fail).
	"stale": {Services: 3, Topology: "chain", Repairs: 5, Rerepairs: 4,
		Faults: simnet.FaultPlan{Delay: 0.35, DelayTicks: 10, Duplicate: 0.1, DropResponse: 0.1}},
	// dupcreate: create-bearing workloads under lost-response/duplicate
	// faults re-deliver creates whose first response vanished. The dedup
	// inbox re-acknowledges them with the originally minted request ID;
	// without it the peer mints a second synthetic request and the
	// non-idempotent /add double-applies.
	"dupcreate": {Services: 3, Topology: "chain", Creates: 3,
		Faults: simnet.FaultPlan{DropResponse: 0.25, Duplicate: 0.15, Drop: 0.1}},
	// lostwave: a cursed delivery and ALL of its retries vanish silently
	// for the rest of the run (LostTicks 0) — backoff-driven redelivery is
	// structurally useless, because every attempt re-enters the same hole.
	// Only a carrier stamped Aire-Reoffer lifts the curse — the
	// version-vector layer's anti-entropy path (a receiver gap NACK, or the
	// sender's own backoff-horizon escalation). With re-offer stamping
	// suppressed convergence genuinely stalls past the backoff horizon
	// (TestLostWaveStallsWithoutReoffer).
	"lostwave": {Services: 3, Topology: "chain", Repairs: 5, Rerepairs: 3, Creates: 2,
		Faults: simnet.FaultPlan{Lost: 0.1, DropResponse: 0.1}},
	// corrupt: repair-plane bodies arrive with a byte flipped in flight.
	// The always-on carrier checksum (Aire-Body-Sum) refuses the delivery
	// loudly (503) instead of applying garbage; the sender backs off and
	// the clean retry converges.
	"corrupt": {Services: 3, Topology: "chain", Repairs: 4, Creates: 2,
		Faults: simnet.FaultPlan{Corrupt: 0.25, Drop: 0.1}},
}

// SimProfileNames lists the named fault profiles in a fixed order.
func SimProfileNames() []string {
	return []string{"drop", "duplicate", "delay", "partition", "crash", "fsynclag", "mixed", "stale", "dupcreate", "lostwave", "corrupt"}
}

// SimProfileConfig returns the SimConfig for a named fault profile; the
// caller sets Seed (and may override any knob).
func SimProfileConfig(name string) (SimConfig, error) {
	cfg, ok := simProfiles[name]
	if !ok {
		return SimConfig{}, fmt.Errorf("sim: unknown profile %q (have %v)", name, SimProfileNames())
	}
	return cfg, nil
}
