package harness

import (
	"testing"

	"aire/internal/core"
)

// TestAskbotStoredBytesPinned pins the exact storage accounting of one
// repaired Askbot episode (the repair.askbot benchmark's scenario): every
// service's repair-log bytes (Log.AppBytes, gzip-ratio sampled) and
// version-store bytes (Store.VersionBytes). The values were taken before
// the repair log started sizing records by walking them instead of
// encoding them; any drift in either accounting path shows here.
//
// The log bytes moved once on purpose, when a request's record began
// naming each dependency once: askbot fell 4 015 805 → 3 189 587, as its
// question-list reads stopped logging one author-profile read per listed
// question. dpaste rose 108 730 → 110 462: its /download reads a snippet
// and then updates it, which read it again, and the dropped repeat
// compressed to almost nothing, so the sampled gzip ratio that prices
// every dpaste record rose.
func TestAskbotStoredBytesPinned(t *testing.T) {
	s, err := NewAskbotScenario(100, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PreRegister(100); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunLegitTraffic(100, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ log, db int64 }{
		"oauth":  {104834, 13831},
		"askbot": {3189587, 250209},
		"dpaste": {110462, 30845},
	}
	for name, c := range s.TB.Ctrls {
		w, ok := want[name]
		if !ok {
			t.Fatalf("unexpected service %s", name)
		}
		if got := c.Svc.Log.AppBytes(); got != w.log {
			t.Errorf("%s: Log.AppBytes = %d, want %d", name, got, w.log)
		}
		if got := c.Svc.Store.VersionBytes(); got != w.db {
			t.Errorf("%s: Store.VersionBytes = %d, want %d", name, got, w.db)
		}
	}
}
