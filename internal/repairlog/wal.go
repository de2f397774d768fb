package repairlog

import "fmt"

// Change is one log mutation, emitted to the change sink as it happens
// (under the log lock). The WAL layer groups changes into per-commit change
// sets; ApplyWAL replays them during recovery.
type Change struct {
	// Kind is "append", "update", or "gc".
	Kind string `json:"kind"`
	// Record is the appended/updated record itself, borrowed for the
	// duration of the sink call; do not retain it.
	Record *Record `json:"record,omitempty"`
	// BeforeTS is the horizon for gc.
	BeforeTS int64 `json:"before_ts,omitempty"`
}

// SetChangeSink installs fn to observe every mutation. fn runs with the log
// lock held, must not call back into the log, and must encode whatever it
// keeps of Change.Record before returning. Pass nil to detach.
func (l *Log) SetChangeSink(fn func(Change)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = fn
}

func (l *Log) emitLocked(ch Change) {
	if l.sink != nil {
		l.sink(ch)
	}
}

// ApplyWAL upserts a replayed record during recovery, taking ownership of
// rec (the caller must not use it again): an unknown ID is inserted as
// Append inserts it (assigning the next seq, so relative timeline
// tie-breaks match the original insertion order — WAL entries replay in
// append order) and refused whole if it cannot be indexed; a known ID is
// replaced in place, preserving the record's existing seq. It never emits
// to the sink and is idempotent.
func (l *Log) ApplyWAL(rec *Record) error {
	if rec == nil {
		return fmt.Errorf("repairlog: nil WAL record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	old, ok := l.byID[rec.ID]
	if !ok {
		return l.insertLocked(rec)
	}
	l.unindexLocked(old)
	seq := old.seq
	*old = *rec
	old.seq = seq
	// An update the live log could not index whole was logged all the
	// same (Update emits before it reports the error); replay indexes it
	// exactly as far.
	l.indexLocked(old)
	return nil
}

// ApplyWALGC replays a logged GC without re-emitting it.
func (l *Log) ApplyWALGC(beforeTS int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gcLocked(beforeTS)
}
