package harness

import (
	"strings"
	"testing"

	"aire/internal/core"
	"aire/internal/wire"
)

// TestLaxPermissions reproduces §7.1's "lax permissions" scenario
// (Figure 5): an administrator mistakenly adds the attacker to the master
// ACL; the directory distributes it; the attacker corrupts both sheets;
// cancelling the ACL mistake undoes everything.
func TestLaxPermissions(t *testing.T) {
	s := NewSheetScenario(false, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunLaxPermissionAttack(); err != nil {
		t.Fatal(err)
	}
	s.TB.MustCall("sheetA", setCell("budget", "150", LegitUser, LegitToken)) // legit write after attack
	s.ExpectedBudgetA = "150"

	if v, _ := s.cellValue("sheetA", "budget"); v != "150" {
		t.Fatalf("pre-repair budget = %q", v)
	}
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}
	// The attacker's write is gone but the later legitimate write (which
	// re-executed successfully) is preserved.
	if v, _ := s.cellValue("sheetA", "budget"); v != "150" {
		t.Fatalf("post-repair budget = %q, want 150", v)
	}
	// The attacker can no longer write.
	if resp := s.TB.Call("sheetA", setCell("budget", "0wned again", AttackerUser, AttackerToken)); resp.OK() {
		t.Fatal("attacker still has write access after repair")
	}
}

// TestWorldWritableDirectory reproduces the harder §7.1 variant: the
// directory itself is world-writable, so the attacker self-grants access.
// Repair of the single misconfiguration unwinds the self-grant, the
// distribution, and the corruption.
func TestWorldWritableDirectory(t *testing.T) {
	s := NewSheetScenario(false, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunWorldWritableAttack(); err != nil {
		t.Fatal(err)
	}
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}
	// The attacker's self-granted master ACL entries are gone from the
	// directory too.
	if resp := s.TB.Call("dir", getCell("acl:sheetA:"+AttackerUser)); resp.OK() {
		t.Fatalf("master ACL still lists attacker: %s", resp.Body)
	}
	// And the directory is no longer world-writable.
	if resp := s.TB.Call("dir", setCell("acl:sheetA:eve", "rw", "eve", "bogus")); resp.OK() {
		t.Fatal("directory still world-writable")
	}
}

// TestCorruptDataSync reproduces §7.1's data-synchronization scenario: the
// attacker corrupts a synced cell on A and the corruption propagates to B
// via A's sync script; repair follows the same path.
func TestCorruptDataSync(t *testing.T) {
	s := NewSheetScenario(true, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunCorruptSyncAttack(); err != nil {
		t.Fatal(err)
	}
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}
	// Both copies are back to the legitimate value.
	for _, svc := range []string{"sheetA", "sheetB"} {
		if v, _ := s.cellValue(svc, "shared:plan"); v != "Q3 roadmap" {
			t.Fatalf("%s shared:plan = %q, want Q3 roadmap", svc, v)
		}
	}
}

// TestPartialRepairSheetBOffline reproduces §7.2 for the spreadsheets:
// with B offline, A and the directory repair immediately; B catches up
// later.
func TestPartialRepairSheetBOffline(t *testing.T) {
	s := NewSheetScenario(false, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunLaxPermissionAttack(); err != nil {
		t.Fatal(err)
	}
	s.TB.SetOffline("sheetB", true)
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}

	// A is repaired; further unauthorized access is blocked right away.
	if v, _ := s.cellValue("sheetA", "budget"); v == "0wned" {
		t.Fatal("sheetA unrepaired while B offline")
	}
	if resp := s.TB.Call("sheetA", setCell("x", "y", AttackerUser, AttackerToken)); resp.OK() {
		t.Fatal("attacker still authorized on sheetA")
	}
	if s.TB.QueuedMessages() == 0 {
		t.Fatal("expected queued repair for offline sheetB")
	}

	s.TB.SetOffline("sheetB", false)
	s.TB.Settle(20)
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}
}

// TestPartialRepairExpiredToken reproduces §7.2's authorization-failure
// experiment: B rejects repair while the director's token is expired; after
// a refresh (the user's next login), retry completes the repair.
func TestPartialRepairExpiredToken(t *testing.T) {
	s := NewSheetScenario(false, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunLaxPermissionAttack(); err != nil {
		t.Fatal(err)
	}
	// Expire the director's and attacker's tokens on B before repair: B
	// will reject both the ACL-update delete and the corrupt-write delete.
	for _, u := range []string{DirectorUser, AttackerUser} {
		s.TB.MustCall("sheetB", wire.NewRequest("POST", "/token/expire").
			WithForm("user", u).WithHeader("X-Bootstrap", BootstrapToken))
	}

	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}

	// B is effectively offline for repair: held messages + notifications.
	var heldMsgs []string
	for _, ctrl := range []*core.Controller{s.Dir, s.A} {
		for _, p := range ctrl.Pending() {
			if p.Held && p.Msg.Target == "sheetB" {
				heldMsgs = append(heldMsgs, p.DeliveryID)
			}
		}
	}
	if len(heldMsgs) == 0 {
		t.Fatal("expected held repair messages for sheetB")
	}
	if v, _ := s.cellValue("sheetB", "budget"); v != "0wned" {
		t.Fatalf("sheetB should still be corrupt, budget = %q", v)
	}

	// The user logs in again: tokens refreshed, pending repairs retried.
	for _, u := range []string{DirectorUser, AttackerUser} {
		s.TB.MustCall("sheetB", wire.NewRequest("POST", "/token/refresh").
			WithForm("user", u).WithHeader("X-Bootstrap", BootstrapToken))
	}
	for _, ctrl := range []*core.Controller{s.Dir, s.A} {
		for _, p := range ctrl.Pending() {
			if p.Held {
				if err := ctrl.Retry(p.DeliveryID, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s.TB.Settle(20)
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}
}
