package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunAllScenarios: every scenario recovers — five headers, and each
// scenario ends on its "state preserved" or "all services clean" line.
func TestRunAllScenarios(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if n := strings.Count(out, "==== scenario: "); n != 5 {
		t.Fatalf("%d scenario headers, want 5:\n%s", n, out)
	}
	clean := strings.Count(out, "legitimate state preserved\n") + strings.Count(out, "all services clean\n")
	if clean != 5 {
		t.Fatalf("%d scenarios ended clean, want 5:\n%s", clean, out)
	}
}

// TestRunUnknownScenario: an unknown scenario is a usage error that runs
// nothing.
func TestRunUnknownScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "nosuch") {
		t.Fatalf("stdout %q, stderr %q", &stdout, &stderr)
	}
}
