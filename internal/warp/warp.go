// Package warp implements local intrusion recovery by rollback and
// selective re-execution — the Warp-derived engine every Aire service runs
// (§2.1, §3.2).
//
// Given a set of repair actions (cancel a request, replace a request's
// payload, create a request in the past, or replace the logged response of
// an outgoing call), the engine:
//
//  1. rolls back the database versions written by affected requests,
//  2. walks the affected slice of the service timeline — candidates come
//     from the repair log's inverted read-dependency index (readers of
//     rolled-back keys, scanners of touched models, writers of touched
//     keys), in timeline order — re-executing every request whose recorded
//     dependencies no longer match the (partially repaired) store, and
//  3. diffs each re-execution's outgoing calls, response, and external
//     effects against the log, emitting the cross-service repair messages
//     (replace / delete / create / replace_response) that Aire's controller
//     queues for other services (§3.2).
//
// Re-execution is deterministic — recorded nondeterminism is replayed and
// object IDs are derived from request IDs — so repair is stable (§3.3):
// repairing time t only produces repair messages for times after t, and
// repair propagation converges.
package warp

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"time"

	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/web"
	"aire/internal/wire"
)

// ActionKind enumerates local repair actions. The first three correspond
// directly to the repair protocol operations of Table 1 as received by a
// service; ReplaceCallResp is the local application of an incoming
// replace_response (fixing the logged response of a call this service made).
type ActionKind int

const (
	// CancelReq undoes a past request entirely (Table 1 "delete").
	CancelReq ActionKind = iota
	// ReplaceReq re-executes a past request with corrected content
	// (Table 1 "replace").
	ReplaceReq
	// CreateReq executes a new request in the past (Table 1 "create").
	CreateReq
	// ReplaceCallResp replaces the logged response of an outgoing call
	// (the receiving half of Table 1 "replace_response").
	ReplaceCallResp
)

func (k ActionKind) String() string {
	switch k {
	case CancelReq:
		return "delete"
	case ReplaceReq:
		return "replace"
	case CreateReq:
		return "create"
	case ReplaceCallResp:
		return "replace_response"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// Action is one local repair instruction.
type Action struct {
	Kind ActionKind

	// ReqID names the local request to cancel/replace.
	ReqID string
	// NewReq is the corrected request (ReplaceReq) or the request to run in
	// the past (CreateReq).
	NewReq wire.Request

	// BeforeID and AfterID anchor a created request on the local timeline
	// (§3.1); either may be empty.
	BeforeID, AfterID string
	// From, ClientRespID, and NotifierURL give a created or replaced
	// request its repair-message-sender context, so the response can be
	// propagated back.
	From, ClientRespID, NotifierURL string

	// RespID names the outgoing call whose response is being replaced
	// (ReplaceCallResp); NewResp is the corrected response, and
	// RemoteReqID, if non-empty, supplies the peer-assigned request ID the
	// call record should learn (a created call does not know it yet).
	RespID      string
	NewResp     wire.Response
	RemoteReqID string
}

// OutKind is the wire name of a queued repair operation (Table 1).
type OutKind string

// The four repair protocol operations of Table 1.
const (
	OutReplace         OutKind = "replace"
	OutDelete          OutKind = "delete"
	OutCreate          OutKind = "create"
	OutReplaceResponse OutKind = "replace_response"
)

// OutMsg is a repair message this service must (asynchronously) deliver to
// a peer.
type OutMsg struct {
	Kind   OutKind
	Target string // peer service name (replace/delete/create)

	// RemoteReqID names the peer's request being replaced or deleted.
	RemoteReqID string
	// Req is the corrected/new request payload (replace/create).
	Req wire.Request
	// RespID: for replace/create, the fresh Aire-Response-Id attached so
	// the peer can later repair the response; for replace_response, the
	// client-assigned response ID being repaired.
	RespID string
	// BeforeID/AfterID anchor a create on the peer's timeline, named by the
	// peer's own request IDs (§3.1).
	BeforeID, AfterID string

	// Resp is the corrected response (replace_response).
	Resp wire.Response
	// NotifierURL is where the response-repair token is sent
	// (replace_response).
	NotifierURL string
	// LocalReqID is our request whose response changed (replace_response);
	// the peer learns it as the authoritative Aire-Request-Id.
	LocalReqID string
	// CallRespID, for replace/create messages, identifies the local call
	// record to update with the peer-assigned request ID once the message
	// is delivered.
	CallRespID string
}

// NoticeKind classifies repair notices surfaced to the application /
// administrator.
type NoticeKind string

const (
	// NoticeNoPropagation flags a changed request or response that cannot
	// be repaired remotely because the original message carried no Aire
	// identifiers (§2.3: non-Aire clients).
	NoticeNoPropagation NoticeKind = "no-propagation"
	// NoticeCompensation flags an external effect whose payload changed
	// under repair; the effect cannot be unperformed, so the administrator
	// is told the corrected content (§7.1's daily email).
	NoticeCompensation NoticeKind = "compensation"
	// NoticeLeak flags a request that read confidential data during
	// original execution but not during replay — a likely disclosure to
	// investigate (§9).
	NoticeLeak NoticeKind = "leak"
)

// Notice is one repair finding surfaced to the application.
type Notice struct {
	Kind   NoticeKind
	ReqID  string
	Detail string
}

// Result summarizes one local repair (the measurements of Table 5).
type Result struct {
	// RepairedRequests counts requests re-executed or cancelled.
	RepairedRequests int
	// TotalRequests is the log size at repair time.
	TotalRequests int
	// RepairedModelOps counts model operations performed during repair.
	RepairedModelOps int
	// TotalModelOps counts model operations across the whole log.
	TotalModelOps int
	// Msgs are the repair messages to queue for peers.
	Msgs []OutMsg
	// Notices are findings for the administrator/application.
	Notices []Notice
	// Duration is the wall time local repair took.
	Duration time.Duration
	// PhaseDurations breaks Duration down by repair phase, indexed like
	// RepairPhases: validate, bookkeep (action bookkeeping + earliest
	// affected time), walk (the timeline re-execution), totals. The
	// controller turns these into repair-phase observability spans; warp
	// itself stays free of the obs dependency.
	PhaseDurations [4]time.Duration
	// CreatedIDs lists, in action order, the request IDs assigned to
	// requests added by CreateReq actions; the creating peer learns them so
	// it can repair the created request later.
	CreatedIDs []string
	// Examined counts the records whose dependency gate ran: the walk's
	// work, which grows with the affected records, not with the log.
	Examined int
}

// RepairPhases names the entries of Result.PhaseDurations.
var RepairPhases = [4]string{"validate", "bookkeep", "walk", "totals"}

// Engine performs local repair for one service. The caller must hold
// Svc.Mu across Repair (normal execution and repair are mutually exclusive,
// §9).
type Engine struct {
	Svc *web.Service
}

// ErrNoSuchRequest is returned when an action names an unknown request.
var ErrNoSuchRequest = errors.New("warp: no such request")

// ErrGarbageCollected is returned when an action names a request whose log
// was garbage-collected; the peer must treat this service as permanently
// unavailable for that repair (§9).
var ErrGarbageCollected = errors.New("warp: request log garbage-collected")

type directive struct {
	cancel  bool
	replace bool
	input   wire.Request
	// fresh sender context for replace (the repair message's credentials
	// become the request's response-propagation route).
	from, clientRespID, notifierURL string
	hasSenderCtx                    bool
}

// Validate is Repair's Phase 0 for one action: it reports, without mutating
// anything, why the action cannot run against the current log (an unknown
// or garbage-collected request, a missing create anchor, an unknown call
// response), or nil. The caller holds Svc.Mu.
func (e *Engine) Validate(a Action) error {
	svc := e.Svc
	switch a.Kind {
	case CancelReq, ReplaceReq:
		if _, ok := svc.Log.Get(a.ReqID); !ok {
			if svc.Log.GCBefore() > 0 {
				return fmt.Errorf("%w: %s", ErrGarbageCollected, a.ReqID)
			}
			return fmt.Errorf("%w: %s", ErrNoSuchRequest, a.ReqID)
		}
	case CreateReq:
		if a.BeforeID != "" {
			if _, ok := svc.Log.TSOf(a.BeforeID); !ok {
				return fmt.Errorf("%w: create anchor before_id %s", ErrNoSuchRequest, a.BeforeID)
			}
		}
		if a.AfterID != "" {
			if _, ok := svc.Log.TSOf(a.AfterID); !ok {
				return fmt.Errorf("%w: create anchor after_id %s", ErrNoSuchRequest, a.AfterID)
			}
		}
	case ReplaceCallResp:
		if _, _, ok := svc.Log.FindByCallRespID(a.RespID); !ok {
			return fmt.Errorf("%w: call response %s", ErrNoSuchRequest, a.RespID)
		}
	default:
		return fmt.Errorf("warp: unknown action kind %v", a.Kind)
	}
	return nil
}

// Repair applies the given actions and selectively re-executes the service
// timeline.
func (e *Engine) Repair(actions []Action) (*Result, error) {
	return e.repair(actions, (*Engine).walkIndexed)
}

// walkFunc is Repair's Phase 2: it runs processRecord, in timeline order,
// over every record the directed ones may have affected. Tests substitute
// a reference walk for walkIndexed.
type walkFunc func(e *Engine, direct map[string]*directive, res *Result)

func (e *Engine) repair(actions []Action, walk walkFunc) (*Result, error) {
	start := time.Now()
	svc := e.Svc
	res := &Result{}
	// Phase timing: pure wall-clock reads between phases (no effect on
	// repair semantics or scheduling); failed repairs return before their
	// marks and simply leave the later durations zero.
	phaseStart := start
	markPhase := func(i int) {
		now := time.Now()
		res.PhaseDurations[i] = now.Sub(phaseStart)
		phaseStart = now
	}

	direct := make(map[string]*directive)
	var t0 int64 = -1
	observe := func(ts int64) {
		if t0 < 0 || ts < t0 {
			t0 = ts
		}
	}

	// Phase 0: validate every action before anything mutates. Phase 1
	// appends created records and rewrites call responses as it walks the
	// action list, so an invalid action (unknown request, GC'd target,
	// missing create anchor) discovered mid-list would otherwise leave the
	// earlier actions half-applied — a frame whose carriers run as one
	// repair would be half-applied, and its redelivery would double-apply
	// them.
	for _, a := range actions {
		if err := e.Validate(a); err != nil {
			return nil, err
		}
	}
	markPhase(0)

	// Phase 1: apply action bookkeeping, locate the earliest affected time.
	for _, a := range actions {
		switch a.Kind {
		case CancelReq, ReplaceReq:
			rec, ok := svc.Log.Get(a.ReqID)
			if !ok {
				if svc.Log.GCBefore() > 0 {
					return nil, fmt.Errorf("%w: %s", ErrGarbageCollected, a.ReqID)
				}
				return nil, fmt.Errorf("%w: %s", ErrNoSuchRequest, a.ReqID)
			}
			d := direct[a.ReqID]
			if d == nil {
				d = &directive{}
				direct[a.ReqID] = d
			}
			if a.Kind == CancelReq {
				d.cancel = true
			} else {
				d.replace, d.cancel = true, false
				d.input = a.NewReq
				d.from, d.clientRespID, d.notifierURL = a.From, a.ClientRespID, a.NotifierURL
				d.hasSenderCtx = true
			}
			observe(rec.TS)

		case CreateReq:
			var tsBefore, tsAfter int64
			if a.BeforeID != "" {
				ts, ok := svc.Log.TSOf(a.BeforeID)
				if !ok {
					return nil, fmt.Errorf("%w: create anchor before_id %s", ErrNoSuchRequest, a.BeforeID)
				}
				tsBefore = ts
			}
			if a.AfterID != "" {
				ts, ok := svc.Log.TSOf(a.AfterID)
				if !ok {
					return nil, fmt.Errorf("%w: create anchor after_id %s", ErrNoSuchRequest, a.AfterID)
				}
				tsAfter = ts
			}
			ts, err := svc.Clock.Between(tsBefore, tsAfter)
			if err != nil {
				return nil, fmt.Errorf("warp: placing created request: %w", err)
			}
			rec := &repairlog.Record{
				ID:           svc.IDs.Request(),
				TS:           ts,
				From:         a.From,
				ClientRespID: a.ClientRespID,
				NotifierURL:  a.NotifierURL,
				Req:          a.NewReq,
				Synthetic:    true,
			}
			if err := svc.Log.Append(rec); err != nil {
				return nil, err
			}
			direct[rec.ID] = &directive{replace: true, input: a.NewReq,
				from: a.From, clientRespID: a.ClientRespID, notifierURL: a.NotifierURL, hasSenderCtx: true}
			res.CreatedIDs = append(res.CreatedIDs, rec.ID)
			observe(ts)

		case ReplaceCallResp:
			rec, i, ok := svc.Log.FindByCallRespID(a.RespID)
			if !ok {
				return nil, fmt.Errorf("%w: call response %s", ErrNoSuchRequest, a.RespID)
			}
			newResp := a.NewResp
			remoteID := a.RemoteReqID
			_ = svc.Log.Update(rec.ID, func(r *repairlog.Record) {
				r.Calls[i].Resp = newResp
				r.Calls[i].Tentative = false
				if remoteID != "" {
					r.Calls[i].RemoteReqID = remoteID
				}
			})
			if direct[rec.ID] == nil {
				direct[rec.ID] = &directive{}
			}
			observe(rec.TS)

		default:
			return nil, fmt.Errorf("warp: unknown action kind %v", a.Kind)
		}
	}
	if t0 < 0 {
		return nil, errors.New("warp: repair invoked with no actions")
	}
	markPhase(1)

	// Phase 2: walk the timeline — every record whose recorded dependencies
	// no longer match the (partially repaired) store is re-executed.
	walk(e, direct, res)
	markPhase(2)

	// Phase 3: totals, from the log's maintained counters (the pre-index
	// engine walked the whole log here too).
	res.TotalRequests = svc.Log.Len()
	res.TotalModelOps = svc.Log.TotalModelOps()
	markPhase(3)
	res.Duration = time.Since(start)
	return res, nil
}

// processRecord runs one timeline record through the repair gate and, if it
// is directed or affected, cancels or re-executes it. taint is told about
// every key whose versions this step rolled back or rewrote — the state
// changes that can make later records affected.
func (e *Engine) processRecord(rec *repairlog.Record, d *directive, res *Result, taint func([]repairlog.WriteDep)) {
	res.Examined++
	if rec.Skipped && d == nil {
		return // stays cancelled
	}
	if d == nil && !e.affected(rec) {
		return
	}
	// A shallow snapshot is stable: cancel and re-execution replace the
	// record's fields wholesale (Log.Update, web.Exec.Run) and never write
	// through them, so the old request, response and call bodies are shared
	// instead of copied.
	snap := *rec
	old := &snap

	if d != nil && d.cancel {
		e.cancel(rec, old, res)
		taint(old.Writes)
		return
	}

	input := rec.Req
	if d != nil && d.replace {
		input = d.input
	}
	e.reexecute(rec, old, input, d, res)
	taint(old.Writes)
	taint(rec.Writes)
}

// refHeap is a min-heap of timeline references ordered by (TS, insertion
// seq) — the exact order a full timeline walk visits records.
type refHeap []repairlog.Ref

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].Less(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(repairlog.Ref)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// walkIndexed is the O(affected) Phase 2: a candidate min-heap seeded with
// the directed records, extended — whenever a processed record rolls back or
// rewrites a key — with the readers and writers of that key and the
// scanners of its model, straight from the log's inverted dependency index.
//
// Correctness relies on two invariants. First, a record's dependency check
// can only start failing when some key it read (or model it scanned, or key
// it wrote) is mutated by this repair pass, and every such mutation happens
// in processRecord on a write-dep key — so index candidates are a superset
// of the records a walk of the whole timeline from the earliest directed
// record would re-execute, and the retained hash re-checks gate out the
// rest. Second, a record at time t only mutates store state at timestamps
// >= t, so candidates are discovered in non-decreasing timeline order and
// each record's gate runs with exactly the store state the whole-timeline
// walk would have shown it.
func (e *Engine) walkIndexed(direct map[string]*directive, res *Result) {
	log := e.Svc.Log
	touchedKeys := make(map[vdb.Key]bool)
	touchedModels := make(map[string]bool)

	var h refHeap
	pushed := make(map[string]bool, len(direct))
	push := func(ref repairlog.Ref) {
		if !pushed[ref.Rec.ID] {
			pushed[ref.Rec.ID] = true
			heap.Push(&h, ref)
		}
	}
	for id := range direct {
		if ref, ok := log.RefOf(id); ok {
			push(ref)
		}
	}

	var cur repairlog.Ref
	taint := func(deps []repairlog.WriteDep) {
		for _, w := range deps {
			if touchedKeys[w.Key] {
				// Tainted at an earlier (or equal) walk position: that
				// query already pushed a superset of this one's candidates.
				continue
			}
			touchedKeys[w.Key] = true
			// Strictly after (cur.TS, cur.Seq): a same-TS record ordered
			// before cur already passed its gate against the pre-mutation
			// store, exactly as the whole-timeline walk would have.
			for _, ref := range log.ReadersOf(w.Key, cur.TS, cur.Seq) {
				push(ref)
			}
			for _, ref := range log.WritersOf(w.Key, cur.TS, cur.Seq) {
				push(ref)
			}
			if !touchedModels[w.Key.Model] {
				touchedModels[w.Key.Model] = true
				for _, ref := range log.ScannersOf(w.Key.Model, cur.TS, cur.Seq) {
					push(ref)
				}
			}
		}
	}
	for h.Len() > 0 {
		cur = heap.Pop(&h).(repairlog.Ref)
		e.processRecord(cur.Rec, direct[cur.Rec.ID], res, taint)
	}
}

// affected re-evaluates the request's recorded dependencies against the
// current (partially repaired) store: a request is affected when a value it
// read has changed or one of its writes was rolled back.
func (e *Engine) affected(rec *repairlog.Record) bool {
	st := e.Svc.Store
	// Own writes are masked: a read dependency fingerprints what the
	// request observed from other requests.
	for _, r := range rec.Reads {
		if st.HashAtExcluding(r.Key, rec.TS, rec.ID) != r.Hash {
			return true
		}
	}
	for _, s := range rec.Scans {
		if st.ScanHashAtExcluding(s.Model, rec.TS, rec.ID) != s.Hash {
			return true
		}
	}
	// Writes rolled back by an earlier re-execution must be redone
	// ("queries that might have modified the rows that have been rolled
	// back", §2.1).
	for _, w := range rec.Writes {
		if !st.HasVersion(w.Key, w.TS, rec.ID) {
			return true
		}
	}
	return false
}

// cancel undoes a request: its writes are rolled back and its outgoing
// calls are deleted on the peers.
func (e *Engine) cancel(rec, old *repairlog.Record, res *Result) {
	for _, w := range old.Writes {
		e.Svc.Store.Rollback(w.Key, rec.TS-1)
	}
	for _, c := range old.Calls {
		if c.RemoteReqID == "" {
			res.Notices = append(res.Notices, Notice{
				Kind:   NoticeNoPropagation,
				ReqID:  rec.ID,
				Detail: fmt.Sprintf("cancelled request made a call to %s with no Aire identifiers; manual recovery needed", c.Target),
			})
			continue
		}
		// Req rides along as the credential source: the peer's access
		// control verifies the delete against the principal that issued the
		// original request (§4, §7.2).
		res.Msgs = append(res.Msgs, OutMsg{Kind: OutDelete, Target: c.Target, RemoteReqID: c.RemoteReqID, Req: c.Req.Clone()})
	}
	// A cancelled request that read confidential data definitely observed
	// something it should not have (§9): it never runs during replay.
	for _, k := range e.confidentialReads(old.Reads) {
		res.Notices = append(res.Notices, Notice{
			Kind:   NoticeLeak,
			ReqID:  rec.ID,
			Detail: fmt.Sprintf("cancelled request had read confidential object %v", k),
		})
	}
	for _, ef := range old.Effects {
		res.Notices = append(res.Notices, Notice{
			Kind:   NoticeCompensation,
			ReqID:  rec.ID,
			Detail: fmt.Sprintf("external effect %q of cancelled request cannot be undone (payload: %s)", ef.Kind, ef.Payload),
		})
	}
	_ = e.Svc.Log.Update(rec.ID, func(r *repairlog.Record) {
		r.Skipped = true
		r.Reads, r.Scans, r.Writes, r.Calls, r.Effects = nil, nil, nil, nil, nil
		r.Resp = wire.NewResponse(410, "request cancelled by repair")
		r.RepairGen++
	})
	res.RepairedRequests++
	res.RepairedModelOps += len(old.Reads) + len(old.Scans) + len(old.Writes)
}

// reexecute replays one request with (possibly corrected) input, diffing its
// outgoing calls, response, and effects against the previous execution.
func (e *Engine) reexecute(rec, old *repairlog.Record, input wire.Request, d *directive, res *Result) {
	// Roll back this request's own writes to just before its execution
	// time; later versions of those keys are removed too, and their writers
	// re-execute when the walk reaches them (rollback-redo).
	for _, w := range old.Writes {
		e.Svc.Store.Rollback(w.Key, rec.TS-1)
	}

	executedBefore := old.Resp.Status != 0
	gen := rec.RepairGen
	if executedBefore {
		gen++
	}

	rec.Req = input
	if d != nil && d.hasSenderCtx {
		// The repair message sender becomes the response's recipient.
		rec.From = d.from
		rec.ClientRespID = d.clientRespID
		rec.NotifierURL = d.notifierURL
	}

	diff := &callDiff{engine: e, rec: rec, old: old.Calls, res: res}
	exec := &web.Exec{
		Svc:      e.Svc,
		Rec:      rec,
		Mode:     web.Replay,
		Gen:      gen,
		Outbound: diff.outbound,
	}
	resp := exec.Run()
	rec.RepairGen = gen
	rec.Skipped = false
	diff.finish()
	// The record's calls and dependencies were rewritten in place (the
	// handler ran between reading the old state and committing the new);
	// bring the log's secondary indexes back in line with it.
	_ = e.Svc.Log.Resync(rec.ID)

	// Response propagation (§3.2: "if re-execution changes the response of
	// a previously executed request, or computes the response for a newly
	// created request, Aire queues a replace_response message").
	// A browser/non-Aire client has no notifier: nothing is sent (the
	// paper's Askbot experiment likewise sends no replace_response for
	// requests lacking an Aire-Notifier-URL header, §8.2).
	respChanged := !executedBefore || !resp.Equal(old.Resp)
	if respChanged && rec.ClientRespID != "" && rec.NotifierURL != "" {
		res.Msgs = append(res.Msgs, OutMsg{
			Kind:        OutReplaceResponse,
			RespID:      rec.ClientRespID,
			Resp:        resp.Clone(),
			NotifierURL: rec.NotifierURL,
			LocalReqID:  rec.ID,
		})
	}

	e.diffEffects(rec, old, res)
	e.checkLeaks(rec, old, res)

	res.RepairedRequests++
	res.RepairedModelOps += len(rec.Reads) + len(rec.Scans) + len(rec.Writes)
}

// diffEffects compares external effects before and after re-execution;
// changed or new effects cannot be performed retroactively, so they become
// compensating-action notices (§7.1).
func (e *Engine) diffEffects(rec, old *repairlog.Record, res *Result) {
	oldBy := make(map[int]repairlog.Effect, len(old.Effects))
	for _, ef := range old.Effects {
		oldBy[ef.Seq] = ef
	}
	for _, ef := range rec.Effects {
		prev, had := oldBy[ef.Seq]
		delete(oldBy, ef.Seq)
		if had && prev.Kind == ef.Kind && prev.Payload == ef.Payload {
			continue
		}
		res.Notices = append(res.Notices, Notice{
			Kind:   NoticeCompensation,
			ReqID:  rec.ID,
			Detail: fmt.Sprintf("external effect %q changed under repair; corrected payload: %s", ef.Kind, ef.Payload),
		})
	}
	for _, prev := range oldBy {
		res.Notices = append(res.Notices, Notice{
			Kind:   NoticeCompensation,
			ReqID:  rec.ID,
			Detail: fmt.Sprintf("external effect %q should not have been performed (original payload: %s)", prev.Kind, prev.Payload),
		})
	}
}

// checkLeaks reports confidential objects that were read during original
// execution but not during replay — evidence the attack observed data it
// should not have (§9).
func (e *Engine) checkLeaks(rec, old *repairlog.Record, res *Result) {
	leaked := e.confidentialReads(old.Reads)
	if len(leaked) == 0 {
		return
	}
	newReads := make(map[vdb.Key]bool, len(rec.Reads))
	for _, nr := range rec.Reads {
		if nr.Hash != vdb.MissingHash {
			newReads[nr.Key] = true
		}
	}
	for _, k := range leaked {
		if !newReads[k] {
			res.Notices = append(res.Notices, Notice{
				Kind:   NoticeLeak,
				ReqID:  rec.ID,
				Detail: fmt.Sprintf("request read confidential object %v during original execution but not during repair", k),
			})
		}
	}
}

// confidentialReads returns the confidential keys the reads found, each
// once, in first-read order. A record logged before requests recorded
// each key once may name a key several times; it still leaked the object
// once.
func (e *Engine) confidentialReads(reads []repairlog.ReadDep) []vdb.Key {
	var keys []vdb.Key
	for _, r := range reads {
		if r.Hash == vdb.MissingHash || slices.Contains(keys, r.Key) || !e.Svc.Store.IsConfidential(r.Key) {
			continue
		}
		keys = append(keys, r.Key)
	}
	return keys
}

// callDiff matches a re-execution's outgoing calls against the logged ones
// (§3.2): a semantically identical call reuses the logged response (the
// network is not touched); a changed call queues a replace; a brand-new call
// queues a create; logged calls never re-issued queue deletes.
type callDiff struct {
	engine *Engine
	rec    *repairlog.Record
	old    []repairlog.Call
	res    *Result
	oi     int // next unmatched original call
}

func (cd *callDiff) outbound(seq int, target string, req wire.Request) (wire.Response, repairlog.Call) {
	// Exact match at the cursor?
	if cd.oi < len(cd.old) {
		if c := cd.old[cd.oi]; c.Target == target && c.Req.Equal(req) {
			cd.oi++
			return c.Resp.Clone(), c
		}
	}
	// Match further ahead? Everything skipped over was deleted.
	for j := cd.oi + 1; j < len(cd.old); j++ {
		if c := cd.old[j]; c.Target == target && c.Req.Equal(req) {
			for _, dropped := range cd.old[cd.oi:j] {
				cd.deleteCall(dropped)
			}
			cd.oi = j + 1
			return c.Resp.Clone(), c
		}
	}
	// No match. Same target at the cursor => the call's content changed:
	// replace it on the peer, keeping its remote request identity.
	if cd.oi < len(cd.old) && cd.old[cd.oi].Target == target {
		orig := cd.old[cd.oi]
		cd.oi++
		return cd.replaceCall(orig, target, req)
	}
	// Brand-new call: create it in the past on the peer.
	return cd.createCall(seq, target, req)
}

func (cd *callDiff) replaceCall(orig repairlog.Call, target string, req wire.Request) (wire.Response, repairlog.Call) {
	svc := cd.engine.Svc
	if orig.RemoteReqID == "" {
		cd.res.Notices = append(cd.res.Notices, Notice{
			Kind:   NoticeNoPropagation,
			ReqID:  cd.rec.ID,
			Detail: fmt.Sprintf("changed call to %s cannot be repaired: no Aire identifiers on original call", target),
		})
		resp := wire.NewResponse(wire.StatusTimeout, "aire: repair pending (unpropagatable)")
		return resp, repairlog.Call{Target: target, Req: req.Clone(), Resp: resp, Tentative: true}
	}
	respID := svc.IDs.Response()
	cd.res.Msgs = append(cd.res.Msgs, OutMsg{
		Kind:        OutReplace,
		Target:      target,
		RemoteReqID: orig.RemoteReqID,
		Req:         req.Clone(),
		RespID:      respID,
		CallRespID:  respID,
	})
	// Local repair cannot block on the peer (§3.2): hand the handler a
	// tentative timeout; the peer's replace_response will correct it.
	resp := wire.NewResponse(wire.StatusTimeout, "aire: repair pending")
	call := repairlog.Call{
		Target:      target,
		RespID:      respID,
		RemoteReqID: orig.RemoteReqID,
		Req:         req.Clone(),
		Resp:        resp,
		Tentative:   true,
	}
	return resp.Clone(), call
}

func (cd *callDiff) createCall(seq int, target string, req wire.Request) (wire.Response, repairlog.Call) {
	svc := cd.engine.Svc
	respID := svc.IDs.Response()
	beforeID, afterID := svc.Log.NeighborCalls(target, cd.rec.TS)
	cd.res.Msgs = append(cd.res.Msgs, OutMsg{
		Kind:       OutCreate,
		Target:     target,
		Req:        req.Clone(),
		RespID:     respID,
		BeforeID:   beforeID,
		AfterID:    afterID,
		CallRespID: respID,
	})
	resp := wire.NewResponse(wire.StatusTimeout, "aire: repair pending")
	call := repairlog.Call{
		Target:    target,
		RespID:    respID,
		Req:       req.Clone(),
		Resp:      resp,
		Tentative: true,
	}
	return resp.Clone(), call
}

func (cd *callDiff) deleteCall(c repairlog.Call) {
	if c.RemoteReqID == "" {
		cd.res.Notices = append(cd.res.Notices, Notice{
			Kind:   NoticeNoPropagation,
			ReqID:  cd.rec.ID,
			Detail: fmt.Sprintf("dropped call to %s cannot be deleted remotely: no Aire identifiers", c.Target),
		})
		return
	}
	cd.res.Msgs = append(cd.res.Msgs, OutMsg{Kind: OutDelete, Target: c.Target, RemoteReqID: c.RemoteReqID, Req: c.Req.Clone()})
}

// finish queues deletes for logged calls the re-execution never re-issued.
func (cd *callDiff) finish() {
	for _, c := range cd.old[cd.oi:] {
		cd.deleteCall(c)
	}
	cd.oi = len(cd.old)
}
