package harness

import (
	"strings"
	"testing"

	"aire/internal/core"
	"aire/internal/wire"
)

func TestTestbedBasics(t *testing.T) {
	tb := NewTestbed()
	tb.Add(&KVApp{ServiceName: "a"}, core.DefaultConfig())

	if svc := tb.Service("a"); svc == nil || svc.Name != "a" {
		t.Fatal("Service accessor broken")
	}
	if got := tb.Call("nope", wire.NewRequest("GET", "/")); got.Status != wire.StatusTimeout {
		t.Fatalf("unknown service call = %d", got.Status)
	}
	if tb.QueuedMessages() != 0 {
		t.Fatal("fresh testbed has queued messages")
	}
	if rounds := tb.Settle(5); rounds != 0 {
		t.Fatalf("fresh testbed settled in %d rounds", rounds)
	}
}

func TestMustCallPanicsOnError(t *testing.T) {
	tb := NewTestbed()
	tb.Add(&KVApp{ServiceName: "a"}, core.DefaultConfig())
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("MustCall on a failing request must panic")
		}
		if !strings.Contains(p.(string), "404") {
			t.Fatalf("panic = %v", p)
		}
	}()
	tb.MustCall("a", wire.NewRequest("GET", "/get").WithForm("key", "missing"))
}

func TestFreezeTime(t *testing.T) {
	tb := NewTestbed()
	tb.Add(&KVApp{ServiceName: "a"}, core.DefaultConfig())
	tb.FreezeTime(123456)
	if got := tb.Service("a").TimeSource(); got != 123456 {
		t.Fatalf("TimeSource = %d", got)
	}
}

func TestPortingEffortCountsRealCode(t *testing.T) {
	rows := PortingEffort()
	if len(rows) == 0 {
		t.Fatal("no porting rows")
	}
	for _, r := range rows {
		if r.Lines <= 0 {
			t.Fatalf("row %q has %d lines", r.What, r.Lines)
		}
		// §7.3's shape: each concern is tens of lines, not hundreds.
		if r.Lines > 150 {
			t.Fatalf("row %q suspiciously large: %d", r.What, r.Lines)
		}
	}
}
