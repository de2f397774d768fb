package harness

import (
	"strings"
	"testing"

	"aire/internal/core"
	"aire/internal/warp"
	"aire/internal/wire"
)

// TestAskbotAttack reproduces the paper's headline experiment (§7.1,
// Figure 4): recovery from an OAuth-provider misconfiguration that let an
// attacker sign up to Askbot as a victim and spread a malicious snippet to
// Dpaste.
func TestAskbotAttack(t *testing.T) {
	s, err := NewAskbotScenario(9, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunLegitTraffic(9, 2); err != nil {
		t.Fatal(err)
	}

	// Pre-repair sanity: the attack is visible everywhere.
	list := s.TB.Call("askbot", wire.NewRequest("GET", "/questions"))
	if !strings.Contains(string(list.Body), "bitcoin") {
		t.Fatal("attack question not visible before repair")
	}
	snip := s.TB.Call("dpaste", wire.NewRequest("GET", "/snippet").WithForm("id", s.AttackPasteID))
	if !snip.OK() {
		t.Fatal("attack snippet not on dpaste before repair")
	}

	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}

	// The attacker's registration re-executed and failed, so the fake
	// victim signup is undone on Askbot.
	if resp := s.TB.Call("askbot", wire.NewRequest("POST", "/ask").WithForm(
		"session", s.AttackerSession, "title", "again?")); resp.OK() {
		t.Fatal("attacker session should be dead after repair")
	}
	// The daily email was compensated: the administrator learned the
	// corrected contents.
	var comp bool
	for _, n := range s.Askbot.Notifications() {
		if n.Kind == string(warp.NoticeCompensation) && strings.Contains(n.Detail, "daily summary") {
			comp = true
			if strings.Contains(n.Detail, "bitcoin") {
				t.Fatal("compensated email still contains attack content")
			}
		}
	}
	if !comp {
		t.Fatalf("no compensation for the daily email: %+v", s.Askbot.Notifications())
	}
	// Legitimate users can keep working.
	sess := s.LegitSessions["user1"]
	if resp := s.TB.Call("askbot", wire.NewRequest("POST", "/ask").WithForm(
		"session", sess, "title", "post-repair question")); !resp.OK() {
		t.Fatalf("legitimate user blocked after repair: %s", resp.Body)
	}
}

// TestAskbotAttackRepairCounts checks the shape of Table 5: only the
// requests affected by the attack are re-executed, a small fraction of the
// total.
func TestAskbotAttackRepairCounts(t *testing.T) {
	s, err := NewAskbotScenario(10, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunLegitTraffic(10, 5); err != nil {
		t.Fatal(err)
	}

	res, err := s.OAuth.ApplyLocal(cancelAction(s.ConfigReqID))
	if err != nil {
		t.Fatal(err)
	}
	// OAuth repairs the misconfiguration and the attacker-related
	// verify_email; legitimate authorizes/verifies are untouched.
	if res.RepairedRequests >= res.TotalRequests/2 {
		t.Fatalf("oauth repair not selective: %d/%d", res.RepairedRequests, res.TotalRequests)
	}
	if res.TotalRequests < 20 {
		t.Fatalf("oauth log suspiciously small: %d", res.TotalRequests)
	}
	s.TB.Settle(20)

	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}
	// Dpaste repaired exactly one request (the crosspost) out of its log.
	dp := s.Dpaste.Stats()
	if dp.RepairsRun == 0 {
		t.Fatal("dpaste never ran repair")
	}
	// Selective re-execution on every service: strictly fewer requests
	// repaired than logged.
	for name, ctrl := range s.TB.Ctrls {
		repaired, total, _, _ := ctrl.RepairCounts()
		if total == 0 || repaired >= total {
			t.Fatalf("%s: repair not selective (%d/%d)", name, repaired, total)
		}
	}
	// Repair messages flowed oauth -> askbot (replace_response) and
	// askbot -> dpaste (delete).
	if o, a := s.OAuth.Stats().MsgsDelivered, s.Askbot.Stats().MsgsDelivered; o == 0 || a == 0 {
		t.Fatalf("expected repair messages from oauth (%d) and askbot (%d)", o, a)
	}
}

// TestAskbotPartialRepairOfflineDpaste reproduces §7.2: with Dpaste
// offline, OAuth and Askbot still repair immediately (closing the
// vulnerability), and Dpaste catches up when it returns.
func TestAskbotPartialRepairOfflineDpaste(t *testing.T) {
	s, err := NewAskbotScenario(6, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunLegitTraffic(6, 2); err != nil {
		t.Fatal(err)
	}

	s.TB.SetOffline("dpaste", true)
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}

	// OAuth and Askbot are clean.
	if _, ok := s.OAuth.Svc.Store.Get(configKey("debug_verify_all")); ok {
		t.Fatal("oauth unrepaired")
	}
	if _, ok := s.Askbot.Svc.Store.Get(questionKey(s.AttackQuestionID)); ok {
		t.Fatal("askbot unrepaired while dpaste offline")
	}
	// The vulnerability is closed immediately: a fresh exploit attempt
	// fails even though Dpaste is still down.
	if _, err := s.SignupAndLogin("attacker", "victim@example.org"); err == nil {
		t.Fatal("vulnerability still exploitable after partial repair")
	}
	// Dpaste still has the snippet; the delete waits in Askbot's queue.
	if _, ok := s.Dpaste.Svc.Store.Get(snippetKey(s.AttackPasteID)); !ok {
		t.Fatal("dpaste should still hold snippet while offline")
	}
	if s.Askbot.QueueLen() == 0 {
		t.Fatal("askbot should have a queued delete for dpaste")
	}

	s.TB.SetOffline("dpaste", false)
	s.TB.Settle(20)
	if _, ok := s.Dpaste.Svc.Store.Get(snippetKey(s.AttackPasteID)); ok {
		t.Fatal("dpaste unrepaired after coming back online")
	}
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("post-repair problems:\n%s", strings.Join(problems, "\n"))
	}
}

// TestAskbotPartialRepairDpasteNeverOnline reproduces the §7.2 variant in
// which Dpaste never returns: Askbot times out and notifies its
// administrator.
func TestAskbotPartialRepairDpasteNeverOnline(t *testing.T) {
	s, err := NewAskbotScenario(3, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	s.TB.SetOffline("dpaste", true)
	if _, err := s.OAuth.ApplyLocal(cancelAction(s.ConfigReqID)); err != nil {
		t.Fatal(err)
	}
	// Keep pumping past the retry budget.
	for i := 0; i < core.MaxAttempts+2; i++ {
		s.TB.Settle(1)
	}
	var notified bool
	for _, n := range s.Askbot.Notifications() {
		if n.Kind == "unreachable" && n.Target == "dpaste" {
			notified = true
		}
	}
	if !notified {
		t.Fatalf("askbot admin not notified of unreachable dpaste: %+v", s.Askbot.Notifications())
	}
}
