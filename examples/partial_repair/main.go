// Command partial_repair demonstrates §7.2 of the paper: asynchronous
// repair under failure. First the corrupt-data-sync attack is repaired
// while spreadsheet B is offline — A and the directory recover immediately,
// B catches up when it returns. Then the same repair is attempted while B's
// service tokens are expired — B rejects the repair messages as
// unauthorized, the sending services hold them and notify their
// administrators, and a token refresh plus Retry completes recovery.
package main

import (
	"fmt"
	"log"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/wire"
)

func main() {
	offlineDemo()
	fmt.Println()
	expiredTokenDemo()
}

func offlineDemo() {
	fmt.Println("=== partial repair: spreadsheet B offline ===")
	s := harness.NewSheetScenario(true, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunCorruptSyncAttack(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("attack: mallory corrupts shared:plan on A; sync script spreads it to B")
	showCell(s, "sheetA")
	showCell(s, "sheetB")

	s.TB.SetOffline("sheetB", true)
	if err := s.Repair(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nB goes offline; admin cancels the ACL mistake anyway:")
	showCell(s, "sheetA")
	fmt.Printf("  sheetB: offline; %d repair message(s) queued across services\n", s.TB.QueuedMessages())

	s.TB.SetOffline("sheetB", false)
	s.TB.Settle(20)
	fmt.Println("\nB comes back online; queued repair lands:")
	showCell(s, "sheetA")
	showCell(s, "sheetB")
}

func expiredTokenDemo() {
	fmt.Println("=== partial repair: expired credentials + retry ===")
	s := harness.NewSheetScenario(false, core.DefaultConfig())
	s.RunLegitTraffic()
	if err := s.RunLaxPermissionAttack(); err != nil {
		log.Fatal(err)
	}
	// Expire the tokens B uses to authorize repair messages.
	for _, u := range []string{harness.DirectorUser, harness.AttackerUser} {
		s.TB.MustCall("sheetB", wire.NewRequest("POST", "/token/expire").
			WithForm("user", u).WithHeader("X-Bootstrap", harness.BootstrapToken))
	}
	if err := s.Repair(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("B rejects repair (expired tokens); held messages pending user re-login:")
	for _, ctrl := range []*core.Controller{s.Dir, s.A} {
		for _, p := range ctrl.Pending() {
			fmt.Printf("  %-12s -> %-7s %-7s held=%v err=%q\n",
				p.DeliveryID, p.Msg.Target, p.Msg.Kind, p.Held, truncate(p.LastErr, 40))
		}
	}

	fmt.Println("\nuser logs in again: tokens refreshed; application calls Retry:")
	for _, u := range []string{harness.DirectorUser, harness.AttackerUser} {
		s.TB.MustCall("sheetB", wire.NewRequest("POST", "/token/refresh").
			WithForm("user", u).WithHeader("X-Bootstrap", harness.BootstrapToken))
	}
	for _, ctrl := range []*core.Controller{s.Dir, s.A} {
		for _, p := range ctrl.Pending() {
			if p.Held {
				if err := ctrl.Retry(p.DeliveryID, nil); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	s.TB.Settle(20)
	if problems := s.Verify(); len(problems) > 0 {
		log.Fatalf("repair incomplete: %v", problems)
	}
	fmt.Println("repair complete on all services:")
	showBudget(s, "sheetA")
	showBudget(s, "sheetB")
}

func showCell(s *harness.SheetScenario, svc string) {
	resp := s.TB.Call(svc, wire.NewRequest("GET", "/get").WithForm("cell", "shared:plan"))
	fmt.Printf("  %s shared:plan = %q\n", svc, resp.Body)
}

func showBudget(s *harness.SheetScenario, svc string) {
	resp := s.TB.Call(svc, wire.NewRequest("GET", "/get").WithForm("cell", "budget"))
	fmt.Printf("  %s budget = %q (status %d)\n", svc, resp.Body, resp.Status)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
