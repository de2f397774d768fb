// Index-coherence verification. The log's secondary indexes — respIdx, the
// per-target call timelines, the inverted read-dependency index, and the
// incrementally maintained totalOps counter — are derived state kept
// coherent by Append/Update/Resync/GC (and their WAL-replay equivalents).
// A missed Resync after an in-place rewrite, or a replay path that skips an
// index update, corrupts repair silently: the engine walks the inverted
// index instead of the timeline, so a stale entry re-repairs the wrong
// record and a missing one skips an affected record entirely.
// VerifyIndexes recomputes every index's claim from the primary timeline
// and reports the first divergence; the controller runs it at repair-wave
// start when core.Faults.StrictIndexes is set.
package repairlog

import (
	"fmt"

	"aire/internal/vdb"
)

// VerifyIndexes cross-checks every secondary index against the primary
// timeline and returns the first inconsistency found (nil when coherent):
// byID and order must name the same records, order must be sorted by
// (TS, seq), every indexed call and dependency must be present at its
// timeline position, no index may hold stale entries (counts match), and
// totalOps must equal the recomputed dependency total.
//
// The check is a pure read of log state; it takes the log lock but performs
// no mutation, minting, or I/O, so enabling it does not perturb
// deterministic schedules.
func (l *Log) VerifyIndexes() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.order) != len(l.byID) {
		return fmt.Errorf("repairlog: %d records on the timeline, %d in the ID map", len(l.order), len(l.byID))
	}
	if len(l.indexed) != len(l.order) {
		return fmt.Errorf("repairlog: %d records, %d indexed states", len(l.order), len(l.indexed))
	}
	var ops, respCount, siteCount int
	var readRefs, writeRefs, scanRefs int
	for i, r := range l.order {
		if l.byID[r.ID] != r {
			return fmt.Errorf("repairlog: timeline record %s is not the ID map's record", r.ID)
		}
		if i > 0 {
			prev := l.order[i-1]
			if prev.TS > r.TS || (prev.TS == r.TS && prev.seq >= r.seq) {
				return fmt.Errorf("repairlog: timeline unsorted at %d: (%d,%d) precedes (%d,%d)", i, prev.TS, prev.seq, r.TS, r.seq)
			}
		}
		st := l.indexed[r]
		if st == nil {
			return fmt.Errorf("repairlog: record %s has no indexed state", r.ID)
		}
		ops += len(r.Reads) + len(r.Scans) + len(r.Writes)
		for ci, c := range r.Calls {
			if c.RespID != "" {
				pos, ok := l.respIdx[c.RespID]
				if !ok {
					return fmt.Errorf("repairlog: response-id %s (record %s call %d) missing from respIdx", c.RespID, r.ID, ci)
				}
				if pos.rec != r || pos.idx != ci {
					return fmt.Errorf("repairlog: response-id %s names record %s call %d, expected record %s call %d", c.RespID, pos.rec.ID, pos.idx, r.ID, ci)
				}
				respCount++
			}
			if c.RemoteReqID != "" {
				if !hasCallSite(l.calls[c.Target], r.TS, r.seq, ci, c.RemoteReqID) {
					return fmt.Errorf("repairlog: call %d of record %s (target %s, remote id %s) missing from the call timeline", ci, r.ID, c.Target, c.RemoteReqID)
				}
				siteCount++
			}
		}
		// insertRef deduplicates a record indexing the same key (or model)
		// twice, so count distinct dependencies per record.
		nReads, nWrites, nScans := 0, 0, 0
		seenKeys := make(map[vdb.Key]bool, len(r.Reads))
		for _, d := range r.Reads {
			if seenKeys[d.Key] {
				continue
			}
			seenKeys[d.Key] = true
			if !hasRef(l.readers[d.Key], r) {
				return fmt.Errorf("repairlog: record %s missing from readers[%s/%s]", r.ID, d.Key.Model, d.Key.ID)
			}
			nReads++
		}
		seenKeys = make(map[vdb.Key]bool, len(r.Writes))
		for _, d := range r.Writes {
			if seenKeys[d.Key] {
				continue
			}
			seenKeys[d.Key] = true
			if !hasRef(l.writers[d.Key], r) {
				return fmt.Errorf("repairlog: record %s missing from writers[%s/%s]", r.ID, d.Key.Model, d.Key.ID)
			}
			nWrites++
		}
		seenModels := make(map[string]bool, len(r.Scans))
		for _, d := range r.Scans {
			if seenModels[d.Model] {
				continue
			}
			seenModels[d.Model] = true
			if !hasRef(l.scanners[d.Model], r) {
				return fmt.Errorf("repairlog: record %s missing from scanners[%s]", r.ID, d.Model)
			}
			nScans++
		}
		// The indexed state names each distinct key and model once, so
		// unindexing removes every ref and nothing twice.
		if len(st.readKeys) != nReads || len(st.writeKeys) != nWrites || len(st.scanModels) != nScans {
			return fmt.Errorf("repairlog: indexed state of record %s holds %d/%d/%d read/write/scan entries, record has %d/%d/%d distinct",
				r.ID, len(st.readKeys), len(st.writeKeys), len(st.scanModels), nReads, nWrites, nScans)
		}
		readRefs += nReads
		writeRefs += nWrites
		scanRefs += nScans
	}
	if l.totalOps != ops {
		return fmt.Errorf("repairlog: totalOps drift: counter holds %d, records sum to %d", l.totalOps, ops)
	}
	// Reverse direction: the forward pass proved every call/dependency is
	// indexed; equal counts prove the indexes hold nothing else (no stale
	// entries surviving an unindex).
	if len(l.respIdx) != respCount {
		return fmt.Errorf("repairlog: respIdx holds %d entries, records carry %d identified responses", len(l.respIdx), respCount)
	}
	total := 0
	for target, ln := range l.calls {
		if ln.live() <= 0 {
			return fmt.Errorf("repairlog: call timeline for target %s holds no live site", target)
		}
		dead := 0
		for j, s := range ln.sites {
			if s.dead {
				dead++
			} else if s.remoteID == "" {
				return fmt.Errorf("repairlog: call timeline for %s holds a site with no remote id", target)
			}
			if j > 0 && !callSiteLess(ln.sites[j-1], s) {
				return fmt.Errorf("repairlog: call timeline for %s unsorted at %d", target, j)
			}
		}
		if dead != ln.dead || dead > ln.live() {
			return fmt.Errorf("repairlog: call timeline for %s holds %d dead sites, counts %d, with %d live", target, dead, ln.dead, ln.live())
		}
		total += ln.live()
	}
	if total != siteCount {
		return fmt.Errorf("repairlog: call timelines hold %d live sites, records carry %d identified calls", total, siteCount)
	}
	if n, err := verifyRefMap("readers", refKeyLists(l.readers), l.byID); err != nil {
		return err
	} else if n != readRefs {
		return fmt.Errorf("repairlog: readers index holds %d refs, records carry %d distinct read deps", n, readRefs)
	}
	if n, err := verifyRefMap("writers", refKeyLists(l.writers), l.byID); err != nil {
		return err
	} else if n != writeRefs {
		return fmt.Errorf("repairlog: writers index holds %d refs, records carry %d distinct write deps", n, writeRefs)
	}
	if n, err := verifyRefMap("scanners", refModelLists(l.scanners), l.byID); err != nil {
		return err
	} else if n != scanRefs {
		return fmt.Errorf("repairlog: scanners index holds %d refs, records carry %d distinct scan deps", n, scanRefs)
	}
	return nil
}

// hasRef reports whether the sorted ref list holds the record at its current
// timeline position.
func hasRef(refs []Ref, r *Record) bool {
	i := searchRefs(refs, r.TS, r.seq)
	return i < len(refs) && refs[i].Rec == r
}

// hasCallSite reports whether the call timeline holds the exact site
// (ts, seq, idx, remoteID), live.
func hasCallSite(ln *callLine, ts, seq int64, idx int, remoteID string) bool {
	if ln == nil {
		return false
	}
	j := ln.search(ts, seq, idx)
	if j >= len(ln.sites) {
		return false
	}
	s := ln.sites[j]
	return !s.dead && s.ts == ts && s.seq == seq && s.idx == idx && s.remoteID == remoteID
}

// callSiteLess orders call sites by (ts, seq, idx), strictly.
func callSiteLess(a, b callSite) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.idx < b.idx
}

// namedRefs is one index bucket flattened for verification: its display name
// plus its sorted ref list.
type namedRefs struct {
	name string
	refs []Ref
}

func refKeyLists(m map[vdb.Key][]Ref) []namedRefs {
	out := make([]namedRefs, 0, len(m))
	for k, refs := range m {
		out = append(out, namedRefs{name: k.Model + "/" + k.ID, refs: refs})
	}
	return out
}

func refModelLists(m map[string][]Ref) []namedRefs {
	out := make([]namedRefs, 0, len(m))
	for model, refs := range m {
		out = append(out, namedRefs{name: model, refs: refs})
	}
	return out
}

// verifyRefMap checks every bucket of an inverted-index map: non-empty,
// sorted, each ref pointing at a live record at its current timeline
// position. Returns the total ref count for the stale-entry count check.
func verifyRefMap(kind string, buckets []namedRefs, byID map[string]*Record) (int, error) {
	total := 0
	for _, b := range buckets {
		if len(b.refs) == 0 {
			return 0, fmt.Errorf("repairlog: empty %s bucket %s", kind, b.name)
		}
		for i, rf := range b.refs {
			if rf.Rec == nil || byID[rf.Rec.ID] != rf.Rec {
				return 0, fmt.Errorf("repairlog: %s[%s] ref %d names a record not in the log", kind, b.name, i)
			}
			if rf.TS != rf.Rec.TS || rf.Seq != rf.Rec.seq {
				return 0, fmt.Errorf("repairlog: %s[%s] ref %d position (%d,%d) diverged from record %s at (%d,%d)", kind, b.name, i, rf.TS, rf.Seq, rf.Rec.ID, rf.Rec.TS, rf.Rec.seq)
			}
			if i > 0 && !b.refs[i-1].Less(rf) {
				return 0, fmt.Errorf("repairlog: %s[%s] unsorted at %d", kind, b.name, i)
			}
		}
		total += len(b.refs)
	}
	return total, nil
}

// CorruptRespIndexForTest drops one response-id mapping (the smallest key,
// for determinism) so tests outside this package can prove the coherence
// guard fires; when the index is empty it drifts totalOps instead, so the
// corruption always takes effect. Test hook only.
func (l *Log) CorruptRespIndexForTest() {
	l.mu.Lock()
	defer l.mu.Unlock()
	min := ""
	for k := range l.respIdx {
		if min == "" || k < min {
			min = k
		}
	}
	if min != "" {
		delete(l.respIdx, min)
		return
	}
	l.totalOps++
}
