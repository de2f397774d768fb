// Package repairlog implements Aire's per-service repair log (§2.1, §2.2).
//
// During normal operation the log records every handled request together
// with its response, the database versions it read and wrote, the outgoing
// HTTP calls it made (and the Aire identifiers exchanged on them), and its
// recorded sources of nondeterminism. Local repair walks this log to find
// requests affected by an attack, re-executes them, and updates their
// records in place so that an already-repaired request can be repaired again
// (§2.2: "a future repair can perform recovery on an already repaired
// request").
package repairlog

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"aire/internal/vdb"
	"aire/internal/wire"
)

// ReadDep records one object read: the key, the timestamp of the version
// observed (0 when the read missed), and a fingerprint of the value read.
// Repair re-evaluates the read against the current store: the reader is
// affected only if the fingerprint changed.
type ReadDep struct {
	Key  vdb.Key `json:"key"`
	TS   int64   `json:"ts"`
	Hash uint64  `json:"hash"`
}

// ScanDep records one list query over a model: a fingerprint of the set of
// live objects (IDs and values) visible at read time.
type ScanDep struct {
	Model string `json:"model"`
	Hash  uint64 `json:"hash"`
}

// WriteDep records one object write: the key and the version timestamp.
type WriteDep struct {
	Key vdb.Key `json:"key"`
	TS  int64   `json:"ts"`
}

// Nondet records one consumed source of nondeterminism (kind "now" or
// "rand"), replayed in order during re-execution so local repair is stable
// (§3.3).
type Nondet struct {
	Kind  string `json:"kind"`
	Value int64  `json:"value"`
}

// Call records one outgoing HTTP call made while handling a request.
type Call struct {
	// Seq is the call's position within the handling request.
	Seq int `json:"seq"`
	// Target is the peer service the call was sent to.
	Target string `json:"target"`
	// RespID is the Aire-Response-Id this service assigned; it names the
	// peer's response for a later replace_response (§3.1).
	RespID string `json:"resp_id"`
	// RemoteReqID is the Aire-Request-Id the peer assigned; it names our
	// request on the peer for later replace/delete repair calls.
	RemoteReqID string `json:"remote_req_id"`
	// Req and Resp are the call's current (possibly repaired) payloads.
	Req  wire.Request  `json:"req"`
	Resp wire.Response `json:"resp"`
	// Tentative marks a response that is a placeholder timeout produced
	// during repair (§3.2); the true response arrives later via
	// replace_response.
	Tentative bool `json:"tentative,omitempty"`
	// Failed marks a call whose delivery failed during normal operation.
	Failed bool `json:"failed,omitempty"`
}

// Effect records one external side effect (e.g. sending email). Effects
// cannot be undone by rollback; when re-execution changes an effect's
// payload, the repair engine runs a compensating action (§7.1: the daily
// summary email notifies the administrator of the new contents).
type Effect struct {
	Seq     int    `json:"seq"`
	Kind    string `json:"kind"`
	Payload string `json:"payload"`
}

// Record is the log entry for one handled request.
type Record struct {
	// ID is the Aire-Request-Id this service assigned to the request.
	ID string `json:"id"`
	// TS is the request's position on the service's logical timeline.
	TS int64 `json:"ts"`
	// From is the authenticated peer service name ("" for an external
	// client such as a browser).
	From string `json:"from,omitempty"`
	// ClientRespID is the Aire-Response-Id supplied by the client; it names
	// our response on the client for replace_response ("" if the client is
	// not Aire-enabled).
	ClientRespID string `json:"client_resp_id,omitempty"`
	// NotifierURL is where a response-repair token for this request's
	// response should be sent ("" if the client did not supply one).
	NotifierURL string `json:"notifier_url,omitempty"`

	// Req and Resp are the current (possibly repaired) request and response.
	Req  wire.Request  `json:"req"`
	Resp wire.Response `json:"resp"`

	Reads   []ReadDep  `json:"reads,omitempty"`
	Scans   []ScanDep  `json:"scans,omitempty"`
	Writes  []WriteDep `json:"writes,omitempty"`
	Calls   []Call     `json:"calls,omitempty"`
	Nondet  []Nondet   `json:"nondet,omitempty"`
	Effects []Effect   `json:"effects,omitempty"`

	// Skipped marks a request cancelled by a delete repair: its effects are
	// rolled back and it is not re-executed, but the record remains so the
	// repair is itself repairable.
	Skipped bool `json:"skipped,omitempty"`
	// Synthetic marks a request created "in the past" by a create repair.
	Synthetic bool `json:"synthetic,omitempty"`
	// RepairGen counts how many times the request has been re-executed;
	// versioned-API applications fold it into fresh version IDs (§5.2).
	RepairGen int `json:"repair_gen,omitempty"`

	// seq is the record's insertion order in its log, assigned by Append.
	// Records sort on the timeline by (TS, seq): Append places a record
	// after existing records with equal TS, so seq is the tie-break that
	// makes index-driven walks visit records in exactly `order` order.
	seq int64
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := *r
	c.Req = r.Req.Clone()
	c.Resp = r.Resp.Clone()
	c.Reads = append([]ReadDep(nil), r.Reads...)
	c.Scans = append([]ScanDep(nil), r.Scans...)
	c.Writes = append([]WriteDep(nil), r.Writes...)
	c.Calls = make([]Call, len(r.Calls))
	for i, cl := range r.Calls {
		cl.Req = cl.Req.Clone()
		cl.Resp = cl.Resp.Clone()
		c.Calls[i] = cl
	}
	c.Nondet = append([]Nondet(nil), r.Nondet...)
	c.Effects = append([]Effect(nil), r.Effects...)
	return &c
}

// Ref is a timeline reference to a record: the record plus its stable
// timeline position (TS first, then insertion order among equal
// timestamps). The repair engine's index-driven walk orders candidates by
// Ref so it visits records in exactly the order a full timeline walk would.
type Ref struct {
	Rec *Record
	TS  int64
	Seq int64
}

// Less reports whether r precedes o on the timeline.
func (r Ref) Less(o Ref) bool {
	if r.TS != o.TS {
		return r.TS < o.TS
	}
	return r.Seq < o.Seq
}

// callPos locates one outgoing call: the record plus the call's index.
type callPos struct {
	rec *Record
	idx int
}

// callSite is one Aire-identified outgoing call on a per-target timeline.
type callSite struct {
	ts, seq  int64 // owning record's timeline position
	idx      int   // call index within the record
	remoteID string
	dead     bool // removed: a tombstone until the line compacts
}

// callLine is one target's call timeline: its sites sorted by (ts, seq,
// idx), tombstones included. Removing a record's sites marks them dead in
// place, and re-indexing the record revives them, so a re-executed record
// costs its own sites rather than a splice of the line; the line compacts
// once dead sites outnumber live ones, as the outgoing queue does.
type callLine struct {
	sites []callSite
	dead  int
}

func (ln *callLine) live() int { return len(ln.sites) - ln.dead }

// search returns the first site at or after (ts, seq, idx).
func (ln *callLine) search(ts, seq int64, idx int) int {
	return sort.Search(len(ln.sites), func(j int) bool {
		s := ln.sites[j]
		if s.ts != ts {
			return s.ts > ts
		}
		if s.seq != seq {
			return s.seq > seq
		}
		return s.idx >= idx
	})
}

// Log is the per-service repair log. Create one with New. Log is safe for
// concurrent use; records handed out are owned by the log and must only be
// mutated through Update (or mutated in place under the service lock and
// resynchronized with Resync, as the repair engine's re-execution does).
//
// Alongside the primary timeline the log maintains secondary indexes so the
// hot repair paths stop scanning every record:
//
//   - respIdx:  Aire-Response-Id → (record, call index), the
//     FindByCallRespID lookup used on every incoming replace_response and
//     every delivered replace/create acknowledgment;
//   - calls:    per-target sorted call timelines backing NeighborCalls;
//   - readers/writers (by key) and scanners (by model): the inverted
//     read-dependency index the repair engine walks to visit only records
//     that could be affected by a rollback.
//
// All indexes are maintained by Append, Update, Resync, and GC. IDs are
// minted by idgen counters and must be unique per service; a duplicate
// Aire-Response-Id (two services reusing an ID, a buggy peer echoing one
// back) is detected at index-insert time and reported as an error — the
// first record indexed keeps the mapping, so the O(1) lookup never silently
// resolves to the wrong call.
type Log struct {
	mu       sync.RWMutex
	byID     map[string]*Record
	order    []*Record // sorted by TS ascending
	gcBefore int64
	nextSeq  int64

	respIdx  map[string]callPos
	calls    map[string]*callLine // per target
	readers  map[vdb.Key][]Ref
	writers  map[vdb.Key][]Ref
	scanners map[string][]Ref
	indexed  map[*Record]*indexedState
	totalOps int // sum of len(Reads)+len(Scans)+len(Writes) over all records
	// callWork counts the call-timeline entries written, moved or walked:
	// what the call index costs to maintain.
	callWork int64

	// sink observes every mutation for write-ahead logging (see wal.go).
	sink func(Change)

	compress  bool
	rawBytes  int64 // cumulative raw JSON size of all records
	samples   int64 // records sized so far
	sampleRaw int64 // raw bytes of the compression-sampled records
	sampleGz  int64 // gzip bytes of the compression-sampled records
	// sampleBuf holds the JSON of the record being sampled.
	sampleBuf bytes.Buffer
}

// sampleEvery is how often a compressed log actually gzips a record to
// sample the compression ratio: every 16th record.
const sampleEvery = 16

// New returns an empty log. If compress is true, per-record size accounting
// reports gzip-compressed JSON, matching the paper's Table 4 methodology
// ("per-request storage required for Aire's logs (compressed)").
// Compression happens off the request's critical path in a real deployment,
// so the log gzips only every 16th record and scales the raw size by the
// observed compression ratio.
func New(compress bool) *Log {
	return &Log{
		byID:     make(map[string]*Record),
		respIdx:  make(map[string]callPos),
		calls:    make(map[string]*callLine),
		readers:  make(map[vdb.Key][]Ref),
		writers:  make(map[vdb.Key][]Ref),
		scanners: make(map[string][]Ref),
		indexed:  make(map[*Record]*indexedState),
		compress: compress,
	}
}

// Append adds a record. Records may arrive with any timestamp (repair
// creates requests in the past); ordering is maintained by insertion.
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.byID[r.ID]; dup {
		return fmt.Errorf("repairlog: duplicate record id %s", r.ID)
	}
	if err := l.insertLocked(r); err != nil {
		return err
	}
	if l.sink != nil {
		l.emitLocked(Change{Kind: "append", Record: r})
	}
	return nil
}

// insertLocked adds a record whose ID the log does not hold, taking
// ownership of it: it assigns the next seq, places it on the timeline and
// indexes it. A record that cannot be indexed is refused whole. Caller
// holds l.mu for writing.
func (l *Log) insertLocked(r *Record) error {
	l.nextSeq++
	r.seq = l.nextSeq
	l.byID[r.ID] = r
	i := sort.Search(len(l.order), func(i int) bool { return l.order[i].TS > r.TS })
	l.order = append(l.order, nil)
	copy(l.order[i+1:], l.order[i:])
	l.order[i] = r
	if err := l.indexLocked(r); err != nil {
		// A colliding Aire-Response-Id would corrupt the O(1) respIdx
		// lookup; refuse the record entirely rather than index it half-way.
		l.unindexLocked(r)
		l.order = append(l.order[:i], l.order[i+1:]...)
		delete(l.byID, r.ID)
		return err
	}
	l.accountSize(r)
	return nil
}

// searchRefs returns the first index in refs at or after position (ts, seq).
func searchRefs(refs []Ref, ts, seq int64) int {
	return sort.Search(len(refs), func(i int) bool {
		if refs[i].TS != ts {
			return refs[i].TS > ts
		}
		return refs[i].Seq >= seq
	})
}

// insertRef adds the record's Ref to a sorted index list and reports
// whether it was added (false if the record is already present — a record
// reading the same key twice indexes once). A record that sorts after the
// list's last Ref, as every normal-path append does, goes on the tail with
// no search; one already at the tail is found with no search either.
func insertRef(refs []Ref, r *Record) ([]Ref, bool) {
	ref := Ref{Rec: r, TS: r.TS, Seq: r.seq}
	n := len(refs)
	if n == 0 || refs[n-1].Less(ref) {
		return append(refs, ref), true
	}
	if refs[n-1].Rec == r {
		return refs, false
	}
	i := searchRefs(refs, r.TS, r.seq)
	if i < len(refs) && refs[i].Rec == r {
		return refs, false
	}
	refs = append(refs, Ref{})
	copy(refs[i+1:], refs[i:])
	refs[i] = ref
	return refs, true
}

// removeRef drops the record's Ref from a sorted index list.
func removeRef(refs []Ref, r *Record) []Ref {
	i := searchRefs(refs, r.TS, r.seq)
	if i < len(refs) && refs[i].Rec == r {
		refs = append(refs[:i], refs[i+1:]...)
	}
	return refs
}

// indexedState remembers exactly what indexLocked inserted for a record, so
// unindexLocked can remove it even after the record was rewritten in place
// (re-execution mutates a record's Calls and dependency slices directly and
// only then calls Resync). It holds each key and model once, however many
// dependencies the record has on it.
type indexedState struct {
	respIDs     []string
	callTargets []string
	readKeys    []vdb.Key
	writeKeys   []vdb.Key
	scanModels  []string
	ops         int
}

// indexLocked adds the record's calls and dependencies to the secondary
// indexes and remembers what was inserted. A response-ID collision (the
// RespID is already mapped to another call) leaves the existing mapping in
// place and is reported in the returned error; everything else is indexed
// regardless, so unindexLocked always reverses the insert. Caller holds mu.
func (l *Log) indexLocked(r *Record) error {
	var idxErr error
	st := &indexedState{ops: len(r.Reads) + len(r.Scans) + len(r.Writes)}
	for i, c := range r.Calls {
		if c.RespID != "" {
			if pos, taken := l.respIdx[c.RespID]; taken {
				if pos.rec != r || pos.idx != i {
					err := fmt.Errorf("repairlog: response-id collision: %s already names call %d of record %s (now also claimed by call %d of record %s)",
						c.RespID, pos.idx, pos.rec.ID, i, r.ID)
					if idxErr == nil {
						idxErr = err
					}
				}
			} else {
				l.respIdx[c.RespID] = callPos{rec: r, idx: i}
				st.respIDs = append(st.respIDs, c.RespID)
			}
		}
		if c.RemoteReqID != "" {
			l.insertCallLocked(c.Target, callSite{ts: r.TS, seq: r.seq, idx: i, remoteID: c.RemoteReqID})
			st.callTargets = append(st.callTargets, c.Target)
		}
	}
	// One map lookup per dependency. A request records each key once, but
	// a record logged before it did may name a key again; that repeat is
	// found at the list's tail, or by insertRef's search for a record in
	// the past, and costs nothing more.
	for _, d := range r.Reads {
		if refs, added := insertRef(l.readers[d.Key], r); added {
			l.readers[d.Key] = refs
			st.readKeys = append(st.readKeys, d.Key)
		}
	}
	for _, d := range r.Writes {
		if refs, added := insertRef(l.writers[d.Key], r); added {
			l.writers[d.Key] = refs
			st.writeKeys = append(st.writeKeys, d.Key)
		}
	}
	for _, d := range r.Scans {
		if refs, added := insertRef(l.scanners[d.Model], r); added {
			l.scanners[d.Model] = refs
			st.scanModels = append(st.scanModels, d.Model)
		}
	}
	l.totalOps += st.ops
	l.indexed[r] = st
	return idxErr
}

// unindexLocked removes everything indexLocked inserted for the record,
// consulting the remembered state rather than the record itself (which may
// already hold rewritten dependencies). Caller holds mu.
func (l *Log) unindexLocked(r *Record) {
	st := l.indexed[r]
	if st == nil {
		return
	}
	delete(l.indexed, r)
	for _, respID := range st.respIDs {
		if pos, ok := l.respIdx[respID]; ok && pos.rec == r {
			delete(l.respIdx, respID)
		}
	}
	for _, target := range st.callTargets {
		l.removeCallsLocked(target, r.TS, r.seq)
	}
	for _, key := range st.readKeys {
		if refs := removeRef(l.readers[key], r); len(refs) == 0 {
			delete(l.readers, key)
		} else {
			l.readers[key] = refs
		}
	}
	for _, key := range st.writeKeys {
		if refs := removeRef(l.writers[key], r); len(refs) == 0 {
			delete(l.writers, key)
		} else {
			l.writers[key] = refs
		}
	}
	for _, model := range st.scanModels {
		if refs := removeRef(l.scanners[model], r); len(refs) == 0 {
			delete(l.scanners, model)
		} else {
			l.scanners[model] = refs
		}
	}
	l.totalOps -= st.ops
}

// insertCallLocked adds a call site to its target's timeline. A site
// that sorts last, as every normal-path call does, is appended; a
// re-indexed record finds its own tombstone at the site's position and
// revives it. Anything else (a record logged in the past, or a re-executed
// one calling a target it did not call before) is spliced in. Caller
// holds mu.
func (l *Log) insertCallLocked(target string, site callSite) {
	ln := l.calls[target]
	if ln == nil {
		ln = &callLine{}
		l.calls[target] = ln
	}
	l.callWork++
	j := ln.search(site.ts, site.seq, site.idx)
	if j < len(ln.sites) {
		if s := &ln.sites[j]; s.dead && s.ts == site.ts && s.seq == site.seq && s.idx == site.idx {
			*s = site
			ln.dead--
			return
		}
	}
	l.callWork += int64(len(ln.sites) - j)
	ln.sites = append(ln.sites, callSite{})
	copy(ln.sites[j+1:], ln.sites[j:])
	ln.sites[j] = site
}

// removeCallsLocked marks dead the record's live sites on target's
// timeline: they are contiguous at (ts, seq), so a record calling one
// target twice finds its run already dead on the second visit. The line
// compacts once dead sites outnumber live ones, and goes once none live.
// Caller holds mu.
func (l *Log) removeCallsLocked(target string, ts, seq int64) {
	ln := l.calls[target]
	if ln == nil {
		return
	}
	for j := ln.search(ts, seq, 0); j < len(ln.sites) && ln.sites[j].ts == ts && ln.sites[j].seq == seq; j++ {
		l.callWork++
		if !ln.sites[j].dead {
			ln.sites[j].dead = true
			ln.dead++
		}
	}
	switch {
	case ln.live() == 0:
		delete(l.calls, target)
	case ln.dead > ln.live():
		l.callWork += int64(len(ln.sites))
		live := ln.sites[:0]
		for _, s := range ln.sites {
			if !s.dead {
				live = append(live, s)
			}
		}
		clear(ln.sites[len(live):])
		ln.sites, ln.dead = live, 0
	}
}

// accountSize adds the record's raw JSON size to rawBytes. The size comes
// from encodedLen's walk; only the 1-in-sampleEvery compression sample
// needs the encoded bytes themselves. The sample is encoded into a buffer
// the log keeps, so it does not allocate a copy of the record's JSON once
// the buffer has grown to the largest sampled record. Caller holds mu.
func (l *Log) accountSize(r *Record) {
	if l.compress && l.samples%sampleEvery == 0 {
		l.sampleBuf.Reset()
		if err := json.NewEncoder(&l.sampleBuf).Encode(r); err != nil {
			return
		}
		// Encode ends the value with a newline json.Marshal does not
		// write; without it the bytes are Marshal's.
		b := bytes.TrimSuffix(l.sampleBuf.Bytes(), []byte{'\n'})
		l.sampleRaw += int64(len(b))
		l.sampleGz += gzipLen(b)
	}
	l.rawBytes += int64(encodedLen(r))
	l.samples++
}

// sampleZ is the one gzip writer behind every log's compression sample,
// made on the first sample, with the counter it writes to. Its ~1.5 MB of
// tables would dominate the logging path if allocated per record, and a
// sync.Pool would lose them at every collection and allocate them again;
// this writer lives as long as the process. Each use starts a fresh gzip
// stream on a zeroed counter, so logs sharing it see nothing of one
// another.
var sampleZ struct {
	sync.Mutex
	w   *gzip.Writer
	out countingWriter
}

// gzipLen returns the size of b gzipped at BestSpeed.
func gzipLen(b []byte) int64 {
	sampleZ.Lock()
	defer sampleZ.Unlock()
	sampleZ.out.n = 0
	// Neither the constant level nor the in-memory counter can fail.
	if sampleZ.w == nil {
		sampleZ.w, _ = gzip.NewWriterLevel(&sampleZ.out, gzip.BestSpeed)
	} else {
		sampleZ.w.Reset(&sampleZ.out)
	}
	sampleZ.w.Write(b)
	sampleZ.w.Close()
	return sampleZ.out.n
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// Get returns the record with the given ID.
func (l *Log) Get(id string) (*Record, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	r, ok := l.byID[id]
	return r, ok
}

// Update applies fn to the record with the given ID under the log's lock.
// The callback may freely rewrite the record's calls and dependencies
// (re-execution rewrites Calls[].RespID and RemoteReqID, cancel clears the
// dependency slices); the secondary indexes are resynchronized around it.
func (l *Log) Update(id string, fn func(*Record)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.byID[id]
	if !ok {
		return fmt.Errorf("repairlog: no record %s", id)
	}
	l.unindexLocked(r)
	fn(r)
	idxErr := l.indexLocked(r)
	if l.sink != nil {
		l.emitLocked(Change{Kind: "update", Record: r})
	}
	return idxErr
}

// Resync re-derives the secondary index entries of a record that was
// mutated in place. The repair engine's re-execution writes a record's
// Reads/Scans/Writes/Calls directly (the handler runs between reading the
// old state and committing the new, so it cannot run inside Update's
// critical section); it must call Resync(id) once the rewrite is complete.
// The caller is responsible for excluding concurrent log access across the
// whole rewrite (warp holds the service lock).
func (l *Log) Resync(id string) error {
	return l.Update(id, func(*Record) {})
}

// From returns the records with TS >= ts, oldest first.
func (l *Log) From(ts int64) []*Record {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := sort.Search(len(l.order), func(i int) bool { return l.order[i].TS >= ts })
	return append([]*Record(nil), l.order[i:]...)
}

// All returns every record, oldest first.
func (l *Log) All() []*Record {
	return l.From(0)
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.order)
}

// FindByCallRespID locates the record containing the outgoing call that
// assigned the given Aire-Response-Id, along with the call's index. It is
// an O(1) map lookup; it runs on the hot incoming path for every
// replace_response delivery and every replace/create acknowledgment.
func (l *Log) FindByCallRespID(respID string) (*Record, int, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	pos, ok := l.respIdx[respID]
	if !ok {
		return nil, 0, false
	}
	return pos.rec, pos.idx, true
}

// NeighborCalls returns the Aire-Request-Ids (as assigned by the peer) of
// the latest call to target strictly before ts and the earliest call at or
// after ts. They anchor a create repair's before_id/after_id (§3.1): the
// client orders the new request relative to messages it itself exchanged
// with the service. The per-target call timeline answers both neighbors
// with one binary search.
func (l *Log) NeighborCalls(target string, ts int64) (beforeID, afterID string) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ln := l.calls[target]
	if ln == nil {
		return "", ""
	}
	// Tombstones keep their places, so the search sees the whole line and
	// the neighbors are the nearest live sites on either side; there are
	// never more dead sites than live ones.
	i := sort.Search(len(ln.sites), func(i int) bool { return ln.sites[i].ts >= ts })
	for j := i - 1; j >= 0; j-- {
		if !ln.sites[j].dead {
			beforeID = ln.sites[j].remoteID
			break
		}
	}
	for j := i; j < len(ln.sites); j++ {
		if !ln.sites[j].dead {
			afterID = ln.sites[j].remoteID
			break
		}
	}
	return beforeID, afterID
}

// RefOf returns the record's timeline reference.
func (l *Log) RefOf(id string) (Ref, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	r, ok := l.byID[id]
	if !ok {
		return Ref{}, false
	}
	return Ref{Rec: r, TS: r.TS, Seq: r.seq}, true
}

// ReadersOf returns the records holding a read dependency on key strictly
// after timeline position (ts, seq), in timeline order. The repair engine
// uses it to visit only the readers of a rolled-back key instead of the
// whole timeline; the strict bound matters for records sharing a
// timestamp — a same-TS record ordered *before* the mutating record on the
// timeline already passed its dependency check against the pre-mutation
// store, exactly as a full walk would have.
func (l *Log) ReadersOf(key vdb.Key, ts, seq int64) []Ref {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return refsAfter(l.readers[key], ts, seq)
}

// WritersOf returns the records holding a write dependency on key strictly
// after timeline position (ts, seq), in timeline order (the rollback-redo
// candidates).
func (l *Log) WritersOf(key vdb.Key, ts, seq int64) []Ref {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return refsAfter(l.writers[key], ts, seq)
}

// ScannersOf returns the records holding a scan dependency on model
// strictly after timeline position (ts, seq), in timeline order.
func (l *Log) ScannersOf(model string, ts, seq int64) []Ref {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return refsAfter(l.scanners[model], ts, seq)
}

// refsAfter copies the tail of a sorted Ref list strictly after (ts, seq).
func refsAfter(refs []Ref, ts, seq int64) []Ref {
	i := searchRefs(refs, ts, seq+1)
	if i == len(refs) {
		return nil
	}
	return append([]Ref(nil), refs[i:]...)
}

// TotalModelOps returns the total model operations (reads + scans + writes)
// recorded across all records — Table 5's denominator — maintained
// incrementally so repair does not walk the log to report totals.
func (l *Log) TotalModelOps() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.totalOps
}

// IndexBytes estimates the memory footprint of the log's secondary index
// layer: the respID→call map, the per-target call timelines, the inverted
// read-dependency index (readers/writers per key, scanners per model), and
// the per-record indexed-state bookkeeping that keeps them coherent under
// Update/Resync/GC. Table 4's log accounting (raw/compressed JSON bytes)
// ignores this overhead — roughly three 16–24 byte slots per recorded
// dependency — so storage-cost claims can now include it (ROADMAP: "index
// memory is unaccounted"). Fixed per-slot overheads approximate Go's map
// and slice costs; this is an estimate, not allocator truth.
func (l *Log) IndexBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	const (
		refSize  = 24 // Ref: pointer + TS + Seq
		strHdr   = 16 // string header
		sliceHdr = 24 // slice header
	)
	var n int64
	for respID := range l.respIdx {
		n += int64(len(respID)) + strHdr + 16 // callPos: pointer + index
	}
	for target, ln := range l.calls {
		n += int64(len(target)) + strHdr + sliceHdr
		for _, s := range ln.sites {
			n += 32 + int64(len(s.remoteID)) + strHdr // callSite: ts, seq, idx, dead, remoteID
		}
	}
	keyRefs := func(m map[vdb.Key][]Ref) {
		for key, refs := range m {
			n += int64(len(key.Model)+len(key.ID)) + 2*strHdr + sliceHdr
			n += int64(len(refs)) * refSize
		}
	}
	keyRefs(l.readers)
	keyRefs(l.writers)
	for model, refs := range l.scanners {
		n += int64(len(model)) + strHdr + sliceHdr
		n += int64(len(refs)) * refSize
	}
	for _, st := range l.indexed {
		n += 8 + 5*sliceHdr + 8 // map slot + indexedState headers + ops
		for _, s := range st.respIDs {
			n += int64(len(s)) + strHdr
		}
		for _, s := range st.callTargets {
			n += int64(len(s)) + strHdr
		}
		for _, k := range st.readKeys {
			n += int64(len(k.Model)+len(k.ID)) + 2*strHdr
		}
		for _, k := range st.writeKeys {
			n += int64(len(k.Model)+len(k.ID)) + 2*strHdr
		}
		for _, s := range st.scanModels {
			n += int64(len(s)) + strHdr
		}
	}
	return n
}

// TSOf returns the timestamp of the record with the given ID (0, false if
// absent or garbage-collected).
func (l *Log) TSOf(id string) (int64, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	r, ok := l.byID[id]
	if !ok {
		return 0, false
	}
	return r.TS, true
}

// GC discards records with TS < beforeTS (§9). After GC, repairs that name a
// discarded request report the service as permanently unavailable.
func (l *Log) GC(beforeTS int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.gcLocked(beforeTS)
	l.emitLocked(Change{Kind: "gc", BeforeTS: beforeTS})
	return n
}

func (l *Log) gcLocked(beforeTS int64) int {
	if beforeTS > l.gcBefore {
		l.gcBefore = beforeTS
	}
	i := sort.Search(len(l.order), func(i int) bool { return l.order[i].TS >= beforeTS })
	for _, r := range l.order[:i] {
		delete(l.byID, r.ID)
		l.unindexLocked(r)
	}
	l.order = append([]*Record(nil), l.order[i:]...)
	return i
}

// GCBefore returns the garbage-collection horizon (0 if GC never ran).
func (l *Log) GCBefore() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.gcBefore
}

// AppBytes returns the cumulative (compressed, if enabled) encoded size of
// all records appended, for Table 4's per-request log storage accounting.
// With compression enabled, the value is the raw size scaled by the
// compression ratio observed on sampled records.
func (l *Log) AppBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if !l.compress || l.sampleRaw == 0 {
		return l.rawBytes
	}
	return int64(float64(l.rawBytes) * float64(l.sampleGz) / float64(l.sampleRaw))
}
