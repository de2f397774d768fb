package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aire/internal/core"
	"aire/internal/dsched"
	"aire/internal/simnet"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file is the repair-storm harness: a hub service whose outgoing
// queue holds a deep repair cascade (thousands of carrier messages fanning
// out to peer services) while user-visible mirror traffic — response-class
// replace_response messages flowing back toward clients — keeps arriving.
// It measures, per traffic class, how long each message waits between
// enqueue and delivery, so the admission-control regression tests can
// assert the paper-level property the pump's sender-side admission is for:
// a repair storm degrades *repair* latency, never mirror latency.
//
// Two modes share the scenario. Scheduled mode (StormConfig.Sched) runs
// the pump, its delivery workers, and the workload injector as tasks of
// the deterministic scheduler under seeded simnet faults — sojourns are
// measured in scheduler steps, and a seed reproduces its schedule exactly.
// Serial mode runs the production pump on real goroutines and measures
// wall-clock sojourns; it is the -race-friendly smoke variant.

// StormConfig configures one repair-storm run.
type StormConfig struct {
	// Seed drives the task schedule and the fault plan.
	Seed int64
	// Peers is how many cascade destination services the storm fans out to.
	Peers int
	// Backlog is how many cascade carriers are preloaded per peer.
	Backlog int
	// Responses is how many response-class (mirror-plane) messages are
	// injected, one per round, while the storm drains.
	Responses int
	// PeerCost is how many scheduler yield points one cascade delivery
	// consumes in scheduled mode — the deterministic analogue of a slow
	// peer. Serial mode sleeps PeerDelay instead.
	PeerCost  int
	PeerDelay time.Duration
	// noAdmission switches admission control off (core.Faults.NoAdmission)
	// so the teeth test can prove bounded mirror latency is its doing.
	noAdmission bool
	// Sched selects deterministic-scheduler mode.
	Sched bool
	// Faults is the simnet fault plan (scheduled mode only).
	Faults simnet.FaultPlan
	// MaxRounds bounds the drain loop.
	MaxRounds int
}

func (cfg StormConfig) withDefaults() StormConfig {
	if cfg.Peers <= 0 {
		cfg.Peers = 4
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 100
	}
	if cfg.Responses <= 0 {
		cfg.Responses = 10
	}
	if cfg.PeerCost <= 0 {
		cfg.PeerCost = 4
	}
	if cfg.PeerDelay <= 0 {
		cfg.PeerDelay = time.Millisecond
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 600
	}
	return cfg
}

// StormResult reports one run. Sojourns are scheduler steps in scheduled
// mode and microseconds in serial mode.
type StormResult struct {
	MirrorDelivered  int
	CascadeDelivered int
	// MirrorP50/P99/Max summarize mirror-plane (response-class) sojourns.
	MirrorP50, MirrorP99, MirrorMax int64
	// CascadeP50 summarizes cascade sojourns (for the degradation story).
	CascadeP50 int64
	// BacklogAtMirrorDrain is how many cascade messages were still queued
	// when the last mirror message delivered — positive means the mirror
	// plane finished ahead of the storm.
	BacklogAtMirrorDrain int
	// QueueDepth samples the hub's outgoing queue length once per round.
	QueueDepth []int
	// Rounds, SchedSteps, SchedTrace describe the run (scheduled mode).
	Rounds     int
	SchedSteps int
	SchedTrace []string
}

// stormPeer acknowledges every repair-plane carrier, framed or not,
// charging a configurable cost (yield points or wall-clock sleep) per
// carrier — a peer that is up but slow — and then tells the sink which
// message it answered.
type stormPeer struct {
	sched interface{ Yield() }
	cost  int
	delay time.Duration
	sink  *stormSink
}

func (p *stormPeer) HandleWire(from string, req wire.Request) wire.Response {
	return wire.HandleFrame(req, func(c wire.Request) wire.Response {
		if p.sched != nil {
			for i := 0; i < p.cost; i++ {
				p.sched.Yield()
			}
		} else if p.delay > 0 {
			time.Sleep(p.delay)
		}
		p.sink.answered(c)
		return wire.NewResponse(200, "ok")
	})
}

// stormSink matches each message's injection to the first time a peer
// answers its carrier, and accumulates per-class sojourns. now() supplies
// the cost metric — scheduler steps or wall-clock microseconds.
type stormSink struct {
	now func() int64

	mu       sync.Mutex
	queued   map[string]int64
	tokens   map[string]bool // mirror tokens answered so far
	mirror   []int64
	cascade  []int64
	enqueued int // cascade messages injected (for backlog accounting)
	drainAt  int // cascade deliveries seen when the mirror plane drained
	mirrorN  int // mirror messages expected
}

func newStormSink(now func() int64, mirrorN int) *stormSink {
	return &stormSink{now: now, queued: map[string]int64{}, tokens: map[string]bool{}, mirrorN: mirrorN}
}

// inject records a message's enqueue instant under its ID.
func (s *stormSink) inject(id string) {
	s.mu.Lock()
	s.queued[id] = s.now()
	s.mu.Unlock()
}

// answered records a peer's answer to carrier c. A cascade carrier names
// its message by Aire-Request-Id ("peerN-req-i" is message "c-peerN-i"). A
// mirror carrier names only a token, but the pump delivers to one peer in
// queue order, so the k-th distinct token the client sees is message
// "m-k". Redeliveries of an answered message are ignored.
func (s *stormSink) answered(c wire.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id string
	if tok := c.Form["token"]; tok != "" {
		if s.tokens[tok] {
			return
		}
		id = fmt.Sprintf("m-%d", len(s.tokens))
		s.tokens[tok] = true
	} else {
		peer, n, _ := strings.Cut(c.Header[wire.HdrRequestID], "-req-")
		id = "c-" + peer + "-" + n
	}
	at, ok := s.queued[id]
	if !ok {
		return
	}
	delete(s.queued, id)
	d := s.now() - at
	if strings.HasPrefix(id, "m-") {
		s.mirror = append(s.mirror, d)
		if len(s.mirror) == s.mirrorN {
			s.drainAt = s.enqueued - len(s.cascade)
		}
	} else {
		s.cascade = append(s.cascade, d)
	}
}

func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]int64(nil), xs...)
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	i := int(p * float64(len(ys)-1))
	return ys[i]
}

// stormMsgs builds the preloaded cascade backlog: Backlog distinct replace
// carriers per peer, labelled "c-<peer>-<n>" (stormLabel).
func stormMsgs(cfg StormConfig) []core.PendingMsg {
	var msgs []core.PendingMsg
	for p := 0; p < cfg.Peers; p++ {
		peer := fmt.Sprintf("peer%d", p)
		for i := 0; i < cfg.Backlog; i++ {
			msgs = append(msgs, core.PendingMsg{
				Msg: warp.OutMsg{
					Kind: warp.OutReplace, Target: peer,
					RemoteReqID: fmt.Sprintf("%s-req-%d", peer, i),
					Req:         wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v"),
				},
			})
		}
	}
	return msgs
}

// stormInject queues msgs on the hub through the checkpoint-restore entry
// point, each with a delivery ID minted from the hub's counter as an
// enqueue mints one.
func stormInject(hub *core.Controller, msgs ...core.PendingMsg) error {
	for i := range msgs {
		msgs[i].DeliveryID = hub.Svc.IDs.Delivery()
	}
	return hub.ImportAtomic(core.AtomicExport{Queue: msgs})
}

// stormLabel names a storm message in the sink by its content: a cascade
// carrier targeting "<peer>-req-<n>" is "c-<peer>-<n>", the mirror message
// for response "resp-<n>" is "m-<n>".
func stormLabel(m core.PendingMsg) string {
	if m.Msg.Kind == warp.OutReplaceResponse {
		return "m-" + strings.TrimPrefix(m.Msg.RespID, "resp-")
	}
	peer, n, _ := strings.Cut(m.Msg.RemoteReqID, "-req-")
	return "c-" + peer + "-" + n
}

// stormResponse builds the n-th mirror-plane message, labelled "m-<n>".
func stormResponse(n int) core.PendingMsg {
	return core.PendingMsg{
		Msg: warp.OutMsg{
			Kind:        warp.OutReplaceResponse,
			NotifierURL: transport.NotifierURL("client"),
			RespID:      fmt.Sprintf("resp-%d", n),
			LocalReqID:  fmt.Sprintf("lreq-%d", n),
			Resp:        wire.NewResponse(200, "fixed"),
		},
	}
}

// RunStorm executes one repair-storm scenario and returns its measurements.
func RunStorm(cfg StormConfig) (*StormResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Sched {
		return runStormScheduled(cfg)
	}
	return runStormSerial(cfg)
}

func runStormScheduled(cfg StormConfig) (*StormResult, error) {
	bus := transport.NewBus()
	clock := simnet.NewClock(simClockStart)
	sim := simnet.New(bus, cfg.Seed*2+1, cfg.Faults)
	sd := dsched.New(cfg.Seed*3+2, clock)

	ccfg := core.DefaultConfig()
	ccfg.Sched = sd
	ccfg.Clock = clock.Now
	hub := core.NewController(&KVApp{ServiceName: "hub"}, sim, ccfg)
	hub.InjectFaults(core.Faults{NoAdmission: cfg.noAdmission})
	bus.Register("hub", hub)
	sink := newStormSink(func() int64 { return int64(sd.Steps()) }, cfg.Responses)
	for p := 0; p < cfg.Peers; p++ {
		bus.Register(fmt.Sprintf("peer%d", p), &stormPeer{sched: sd, cost: cfg.PeerCost, sink: sink})
	}
	bus.Register("client", &stormPeer{sink: sink}) // the notifier host: fast

	res := &StormResult{}
	ctx, cancel := context.WithCancel(context.Background())
	if err := hub.StartPump(ctx); err != nil {
		cancel()
		return nil, err
	}

	// Preload the storm, then inject one mirror message per round while
	// the pump drains, exactly like the sim driver: drain the scheduler,
	// land delayed calls, advance virtual time.
	cascade := stormMsgs(cfg)
	for _, m := range cascade {
		sink.inject(stormLabel(m))
	}
	sink.mu.Lock()
	sink.enqueued = len(cascade)
	sink.mu.Unlock()
	if err := stormInject(hub, cascade...); err != nil {
		cancel()
		return nil, err
	}

	pulse := func() {
		sd.RunUntilIdle()
		sim.Tick()
		sd.RunUntilIdle()
		clock.Advance(simPulseStep)
		res.QueueDepth = append(res.QueueDepth, hub.QueueLen())
		res.Rounds++
	}
	for i := 0; i < cfg.Responses; i++ {
		m := stormResponse(i)
		sink.inject(stormLabel(m))
		if err := stormInject(hub, m); err != nil {
			cancel()
			return nil, err
		}
		pulse()
	}

	// Drain until everything delivered or nothing moves anymore.
	last := int64(-1)
	for res.Rounds < cfg.MaxRounds && hub.QueueLen() > 0 {
		pulse()
		cur := hub.Stats().MsgsDelivered + hub.Stats().MsgsFailed + int64(sim.HeldCount())
		if cur == last {
			// Backed-off peers: elapse the retry windows.
			clock.Advance(core.BackoffMax)
		}
		last = cur
	}
	stalled := hub.QueueLen()

	cancel()
	sd.RunUntilIdle()
	if live := sd.Live(); live != 0 {
		return nil, fmt.Errorf("storm: %d scheduler tasks still live after shutdown (seed %d)", live, cfg.Seed)
	}
	if stalled > 0 {
		return nil, fmt.Errorf("storm: %d messages still queued after %d rounds (seed %d)", stalled, res.Rounds, cfg.Seed)
	}

	res.SchedSteps = sd.Steps()
	res.SchedTrace = sd.Trace()
	sink.finish(res)
	return res, nil
}

func runStormSerial(cfg StormConfig) (*StormResult, error) {
	bus := transport.NewBus()
	ccfg := core.DefaultConfig()
	hub := core.NewController(&KVApp{ServiceName: "hub"}, bus, ccfg)
	hub.InjectFaults(core.Faults{NoAdmission: cfg.noAdmission})
	bus.Register("hub", hub)
	start := time.Now()
	sink := newStormSink(func() int64 { return time.Since(start).Microseconds() }, cfg.Responses)
	for p := 0; p < cfg.Peers; p++ {
		bus.Register(fmt.Sprintf("peer%d", p), &stormPeer{delay: cfg.PeerDelay, sink: sink})
	}
	bus.Register("client", &stormPeer{sink: sink})

	res := &StormResult{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := hub.StartPump(ctx); err != nil {
		return nil, err
	}
	defer hub.StopPump()

	cascade := stormMsgs(cfg)
	for _, m := range cascade {
		sink.inject(stormLabel(m))
	}
	sink.mu.Lock()
	sink.enqueued = len(cascade)
	sink.mu.Unlock()
	if err := stormInject(hub, cascade...); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Responses; i++ {
		m := stormResponse(i)
		sink.inject(stormLabel(m))
		if err := stormInject(hub, m); err != nil {
			return nil, err
		}
		res.QueueDepth = append(res.QueueDepth, hub.QueueLen())
		res.Rounds++
		time.Sleep(2 * time.Millisecond)
	}
	if !hub.WaitQueueEmpty(60 * time.Second) {
		return nil, fmt.Errorf("storm: %d messages still queued after 60s", hub.QueueLen())
	}
	hub.StopPump()
	sink.finish(res)
	return res, nil
}

// finish folds the sink's accumulated sojourns into the result.
func (s *stormSink) finish(res *StormResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res.MirrorDelivered = len(s.mirror)
	res.CascadeDelivered = len(s.cascade)
	res.MirrorP50 = percentile(s.mirror, 0.50)
	res.MirrorP99 = percentile(s.mirror, 0.99)
	res.MirrorMax = percentile(s.mirror, 1.0)
	res.CascadeP50 = percentile(s.cascade, 0.50)
	res.BacklogAtMirrorDrain = s.drainAt
}
