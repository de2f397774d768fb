package deliver

import (
	"fmt"
	"testing"
)

// Unit tests for the inbox's version vectors (ObserveVector): ack
// compaction, gap detection, idempotent replay (the in-vv WAL op re-feeds
// observations on recovery), persistence of the vector fields, the
// zero-misread classification of never-seen deliveries, and the memory
// contract (entries live until the sender's prefix covers them).

// fill commits n fresh deliveries from origin with ascending sequences
// starting at seq, returning the next unused sequence.
func fill(t *testing.T, ib *Inbox, origin string, seq uint64, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-dlv-%d", origin, seq)
		if d, _ := ib.Begin(origin, id, 0, false); d != Apply {
			t.Fatalf("fill %s: got %v, want Apply", id, d)
		}
		ib.Commit(origin, id, 0, "ok", int64(seq))
		seq++
	}
	return seq
}

// announceAndFill commits n deliveries the way the controller's HandleWire
// does: each carrier first feeds the sender's vector through ObserveVector —
// acked pinned where the sender's contiguous prefix stops, frontier at the
// carrier's own sequence — then applies. Returns the next unused sequence.
func announceAndFill(t *testing.T, ib *Inbox, origin string, acked, seq uint64, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-dlv-%d", origin, seq)
		ib.ObserveVector(origin, acked, seq, seq, seq)
		if d, _ := ib.Begin(origin, id, 0, false); d != Apply {
			t.Fatalf("announceAndFill %s: got %v, want Apply", id, d)
		}
		ib.Commit(origin, id, 0, "ok", int64(seq))
		seq++
	}
	return seq
}

// TestObserveVectorCompaction: advancing the acked prefix releases every
// committed entry it covers — and only those — while the counts and Len
// agree.
func TestObserveVectorCompaction(t *testing.T) {
	ib := NewInbox()
	fill(t, ib, "s0", 1, 6) // seqs 1..6 committed
	obs := ib.ObserveVector("s0", 4, 6, 0, 0)
	if obs.Compacted != 4 {
		t.Fatalf("acked=4 compacted %d entries, want 4", obs.Compacted)
	}
	if ib.Len() != 2 {
		t.Fatalf("Len()=%d after compaction, want 2 (seqs 5,6)", ib.Len())
	}
	// Inside the prefix: Duplicate with no entry to consult. Above it: the
	// live entries still answer.
	if d, _ := ib.Begin("s0", "s0-dlv-3", 0, false); d != Duplicate {
		t.Fatalf("compacted seq 3: got %v, want Duplicate", d)
	}
	if d, out := ib.Begin("s0", "s0-dlv-5", 0, false); d != Duplicate || out != "ok" {
		t.Fatalf("live seq 5: got %v outcome %q, want Duplicate with recorded outcome", d, out)
	}
}

// TestObserveVectorPendingNotCompacted: a pending (mid-apply) entry is
// never compacted, even if a (buggy or duplicated) announcement claims the
// prefix covers it — compacting a reservation would let a racing second
// copy re-apply.
func TestObserveVectorPendingNotCompacted(t *testing.T) {
	ib := NewInbox()
	if d, _ := ib.Begin("s0", "s0-dlv-1", 0, false); d != Apply {
		t.Fatal("setup: not Apply")
	}
	obs := ib.ObserveVector("s0", 1, 1, 0, 0)
	if obs.Compacted != 0 || ib.Len() != 1 {
		t.Fatalf("pending entry compacted (n=%d len=%d)", obs.Compacted, ib.Len())
	}
	if d, _ := ib.Begin("s0", "s0-dlv-1", 0, false); d != InFlight {
		t.Fatal("second copy of the pending delivery must stay InFlight")
	}
}

// TestObserveVectorGapRules exercises both gap signals: an acked prefix
// stopping more than one short of the carrier's own sequence, and a
// frontier beyond everything seen; and the quiet cases in between.
func TestObserveVectorGapRules(t *testing.T) {
	ib := NewInbox()
	// Contiguous arrival: carrier seq 1, nothing acked yet — no gap (the
	// prefix stops exactly one short: this very carrier).
	if obs := ib.ObserveVector("s0", 0, 1, 1, 1); obs.Gap {
		t.Fatal("contiguous first carrier flagged a gap")
	}
	fill(t, ib, "s0", 1, 1)
	// Carrier seq 3 announcing acked=1: seq 2 is outstanding somewhere —
	// in flight or lost — so the receiver NACKs (err-on-NACK is safe).
	if obs := ib.ObserveVector("s0", 1, 3, 3, 3); !obs.Gap {
		t.Fatal("acked+1 < curSeq did not flag a gap")
	}
	// A sequence-less carrier (curSeq 0, e.g. a notify) announcing a
	// frontier beyond everything committed: the newest delivery never
	// arrived here.
	if obs := ib.ObserveVector("s0", 1, 9, 0, 0); !obs.Gap {
		t.Fatal("frontier beyond maxSeen did not flag a gap")
	}
	// Frontier covered by the acked prefix: everything it stamped was
	// resolved; nothing to chase.
	if obs := ib.ObserveVector("s0", 9, 9, 0, 0); obs.Gap {
		t.Fatal("fully acked frontier flagged a gap")
	}
}

// TestObserveVectorFrameSpan: a frame is observed against the whole span of
// sequences it carries, so a gap is NACKed only for a sequence outside it.
func TestObserveVectorFrameSpan(t *testing.T) {
	ib := NewInbox()
	// The frame carries 5..7, the sender's whole backlog: acked stops one
	// short of the lowest, the frontier is the highest — no gap.
	if obs := ib.ObserveVector("s0", 4, 7, 5, 7); obs.Gap {
		t.Fatalf("a frame carrying the sender's whole backlog was NACKed (missing %d)", obs.Missing)
	}
	// Something newer than the frame was stamped for us and never seen.
	if obs := ib.ObserveVector("s0", 4, 9, 5, 7); !obs.Gap || obs.Missing <= 7 {
		t.Fatalf("frontier beyond the frame: %+v, want a gap above 7", obs)
	}
	// Something older than the frame is outstanding.
	if obs := ib.ObserveVector("s0", 4, 9, 8, 9); !obs.Gap || obs.Missing != 5 {
		t.Fatalf("prefix short of the frame: %+v, want a gap at 5", obs)
	}
}

// TestObserveVectorIdempotentReplay: ObserveVector is a monotonic max, so
// replaying an observation (the WAL recovery path re-feeds in-vv ops) is a
// no-op: no advance, nothing more to compact, no regression of the prefix.
func TestObserveVectorIdempotentReplay(t *testing.T) {
	ib := NewInbox()
	fill(t, ib, "s0", 1, 3)
	first := ib.ObserveVector("s0", 3, 3, 0, 0)
	if !first.Advanced || first.Compacted != 3 {
		t.Fatalf("first observation: %+v", first)
	}
	replay := ib.ObserveVector("s0", 3, 3, 0, 0)
	if replay.Advanced || replay.Compacted != 0 {
		t.Fatalf("replayed observation was not a no-op: %+v", replay)
	}
	stale := ib.ObserveVector("s0", 1, 1, 0, 0)
	if stale.Advanced || stale.Acked != 3 {
		t.Fatalf("older observation regressed the prefix: %+v", stale)
	}
}

// TestVectorFieldsSurviveRestart: the acked prefix must be exactly as
// durable as the compaction it justified — a restored inbox classifies a
// compacted delivery's ghost as Duplicate, not Apply.
func TestVectorFieldsSurviveRestart(t *testing.T) {
	ib := NewInbox()
	fill(t, ib, "s0", 1, 4)
	ib.ObserveVector("s0", 4, 4, 0, 0) // compacts all four

	restored := NewInbox()
	restored.Restore(ib.Dump())
	if d, _ := restored.Begin("s0", "s0-dlv-2", 0, false); d != Duplicate {
		t.Fatalf("ghost of a compacted delivery after restore: got %v, want Duplicate", d)
	}
	// The restored frontier keeps gap detection armed.
	if obs := restored.ObserveVector("s0", 4, 9, 9, 9); !obs.Gap {
		t.Fatal("restored inbox lost gap detection (acked=4, carrier seq 9)")
	}
}

// TestNeverSeenDeliveryZeroMisread is the zero-residual claim: a delivery
// dropped in the network before its first Begin leaves the inbox no
// evidence it exists, yet its eventual retry is never misread. The sender's announced acked prefix
// stops below the unseen sequence for as long as it stays unresolved, so
// however many later deliveries commit, the retry is classified exactly —
// Apply before it ever lands, Duplicate for any ghost after the prefix
// finally covers it.
func TestNeverSeenDeliveryZeroMisread(t *testing.T) {
	const later = 32
	unseen := "s0-dlv-100" // dropped in the network; the inbox never saw it

	// Seq 100 is outstanding on the sender's side, so every later carrier
	// announces acked=99 — nothing above the prefix is released, and the
	// late first arrival applies.
	ib := NewInbox()
	next := announceAndFill(t, ib, "s0", 99, 101, later)
	if ib.Len() != later {
		t.Fatalf("Len()=%d with the prefix pinned at 99, want %d (nothing unacked is released)", ib.Len(), later)
	}
	if d, _ := ib.Begin("s0", unseen, 0, false); d != Apply {
		t.Fatalf("a never-seen delivery's retry after %d interleaved deliveries: got %v, want Apply (zero residual)", later, d)
	}
	ib.Commit("s0", unseen, 0, "ok", 100)

	// The sender consumes the outcome and finally advances its prefix over
	// everything: entries compact away, and a network-duplicated ghost of
	// the recovered delivery is classified from the prefix — Duplicate,
	// exactly, with no entry left to consult.
	obs := ib.ObserveVector("s0", next-1, next-1, 0, 0)
	if obs.Compacted == 0 || ib.Len() != 0 {
		t.Fatalf("acked prefix over everything compacted %d entries, %d left; want all gone", obs.Compacted, ib.Len())
	}
	if d, _ := ib.Begin("s0", unseen, 0, false); d != Duplicate {
		t.Fatalf("ghost of an acked delivery after compaction: got %v, want Duplicate", d)
	}

	// A generation-bumped retry above the acked prefix is never swallowed:
	// the prefix vouches only for sequences at or below it.
	if d, _ := ib.Begin("s0", fmt.Sprintf("s0-dlv-%d", next), 1, false); d != Apply {
		t.Fatalf("gen-1 arrival above the prefix: got %v, want Apply", d)
	}
}

// TestCrashMidApplyReappliesAfterRestore: a delivery whose apply is in
// flight at capture time (reserved, nothing ever committed) is not part of
// the dump — the crash interrupted the apply, so after restore its retry
// must re-apply, however many higher sequences committed around it. The
// sender still holds it, so the restored acked prefix stops below it. The
// same holds for an apply that failed and was rolled back before the dump.
func TestCrashMidApplyReappliesAfterRestore(t *testing.T) {
	ib := NewInbox()
	announceAndFill(t, ib, "s0", 98, 101, 16) // seqs 99 and 100 unresolved
	rolledBack, inflight := "s0-dlv-99", "s0-dlv-100"
	if d, _ := ib.Begin("s0", rolledBack, 0, false); d != Apply {
		t.Fatal("setup: first arrival of seq 99 not Apply")
	}
	ib.Rollback("s0", rolledBack, 0)
	if d, _ := ib.Begin("s0", inflight, 1, false); d != Apply {
		t.Fatal("setup: in-flight delivery not Apply")
	}
	// Crash here: seq 100 reserved, never Committed or Rolled back.
	restored := NewInbox()
	restored.Restore(ib.Dump())
	for _, id := range []string{rolledBack, inflight} {
		if d, _ := restored.Begin("s0", id, 0, false); d != Apply {
			t.Fatalf("retry of never-applied %s after restore: got %v, want Apply", id, d)
		}
	}
}

// TestAnnouncingOriginMemoryContract: nothing unacked is ever forgotten —
// the inbox holds exactly the sender's unacknowledged window — and it
// shrinks back the moment the prefix advances; the high-water mark records
// the excursion.
func TestAnnouncingOriginMemoryContract(t *testing.T) {
	const window = 12
	ib := NewInbox()
	for seq := uint64(1); seq <= window; seq++ {
		id := fmt.Sprintf("s0-dlv-%d", seq)
		ib.ObserveVector("s0", 0, seq, seq, seq) // sender resolves nothing yet
		if d, _ := ib.Begin("s0", id, 0, false); d != Apply {
			t.Fatalf("%s: got %v, want Apply", id, d)
		}
		ib.Commit("s0", id, 0, "ok", int64(seq))
	}
	if ib.Len() != window {
		t.Fatalf("Len()=%d, want the unacked window %d", ib.Len(), window)
	}
	ib.ObserveVector("s0", window, window, 0, 0)
	if ib.Len() != 0 {
		t.Fatalf("Len()=%d after full ack, want 0", ib.Len())
	}
	if hw := ib.HighWater(); hw != window {
		t.Fatalf("HighWater()=%d, want %d", hw, window)
	}
}
