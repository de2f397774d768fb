// Command airedemo runs the paper's four intrusion-recovery scenarios
// (§7.1) end to end and reports what was attacked, what was repaired, and
// what was preserved.
//
// Usage:
//
//	airedemo -scenario askbot|acl|worldwritable|sync|partial|all [-users N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aire/internal/core"
	"aire/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the smoke test can drive it.
// Exit codes: 0 every scenario recovered, 1 a scenario failed, 2 usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("airedemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "all", "scenario to run: askbot, acl, worldwritable, sync, partial, all")
	users := fs.Int("users", 10, "number of legitimate users (askbot scenario)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	demos := []struct {
		key, title string
		fn         func(io.Writer) error
	}{
		{"askbot", "askbot (Figure 4)", func(w io.Writer) error { return askbotDemo(w, *users) }},
		{"acl", "acl / lax permissions (Figure 5)", aclDemo},
		{"worldwritable", "worldwritable directory", worldWritableDemo},
		{"sync", "corrupt data sync", syncDemo},
		{"partial", "partial repair (offline peer)", partialDemo},
	}
	ran := false
	for _, d := range demos {
		if *scenario != "all" && *scenario != d.key {
			continue
		}
		ran = true
		fmt.Fprintf(stdout, "==== scenario: %s ====\n", d.title)
		if err := d.fn(stdout); err != nil {
			fmt.Fprintf(stderr, "airedemo: %s: %v\n", d.key, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if !ran {
		fmt.Fprintf(stderr, "unknown scenario %q\n", *scenario)
		return 2
	}
	return 0
}

func askbotDemo(w io.Writer, users int) error {
	s, err := harness.NewAskbotScenario(users, core.DefaultConfig())
	if err != nil {
		return err
	}
	if err := s.RunAttack(); err != nil {
		return err
	}
	if err := s.RunLegitTraffic(users, 3); err != nil {
		return err
	}
	fmt.Fprintf(w, "attack: misconfig %s; attacker posted %s; crosspost %s\n",
		s.ConfigReqID, s.AttackQuestionID, s.AttackPasteID)
	if err := s.Repair(); err != nil {
		return err
	}
	if problems := s.Verify(); len(problems) > 0 {
		return fmt.Errorf("verify: %v", problems)
	}
	for _, svc := range []string{"oauth", "askbot", "dpaste"} {
		ctrl := s.TB.Ctrls[svc]
		rr, tr, ro, to := ctrl.RepairCounts()
		fmt.Fprintf(w, "  %-7s repaired %4d/%4d requests, %5d/%6d model ops, repair time %v\n",
			svc, rr, tr, ro, to, ctrl.RepairDuration())
	}
	fmt.Fprintln(w, "attack fully undone; legitimate state preserved")
	return nil
}

func sheetDemo(w io.Writer, withSync bool, attack func(*harness.SheetScenario) error) error {
	s := harness.NewSheetScenario(withSync, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := attack(s); err != nil {
		return err
	}
	if err := s.Repair(); err != nil {
		return err
	}
	if problems := s.Verify(); len(problems) > 0 {
		return fmt.Errorf("verify: %v", problems)
	}
	for _, svc := range []string{"dir", "sheetA", "sheetB"} {
		ctrl := s.TB.Ctrls[svc]
		rr, tr, _, _ := ctrl.RepairCounts()
		fmt.Fprintf(w, "  %-7s repaired %d/%d requests\n", svc, rr, tr)
	}
	fmt.Fprintln(w, "attack fully undone; legitimate state preserved")
	return nil
}

func aclDemo(w io.Writer) error {
	return sheetDemo(w, false, func(s *harness.SheetScenario) error { return s.RunLaxPermissionAttack() })
}

func worldWritableDemo(w io.Writer) error {
	return sheetDemo(w, false, func(s *harness.SheetScenario) error { return s.RunWorldWritableAttack() })
}

func syncDemo(w io.Writer) error {
	return sheetDemo(w, true, func(s *harness.SheetScenario) error { return s.RunCorruptSyncAttack() })
}

func partialDemo(w io.Writer) error {
	s := harness.NewSheetScenario(false, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunLaxPermissionAttack(); err != nil {
		return err
	}
	s.TB.SetOffline("sheetB", true)
	if err := s.Repair(); err != nil {
		return err
	}
	fmt.Fprintf(w, "  B offline: A repaired immediately, %d message(s) queued\n", s.TB.QueuedMessages())
	s.TB.SetOffline("sheetB", false)
	s.TB.Settle(20)
	if problems := s.Verify(); len(problems) > 0 {
		return fmt.Errorf("verify: %v", problems)
	}
	fmt.Fprintln(w, "  B online: queued repair delivered; all services clean")
	return nil
}
