package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunVerdicts drives the sweep's exit codes: a passing sweep exits 0,
// a teeth check whose seeds all pass exits 1, and usage errors — a bad
// -fsync value or an unknown profile — exit 2 before any seed runs.
func TestRunVerdicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		out  string // substring expected on stdout ("" = stdout empty)
		err  string // substring expected on stderr
	}{
		{"pass", []string{"-profile", "drop", "-seeds", "1"}, 0, "1 seeds passed", ""},
		{"expect-fail on a passing profile", []string{"-profile", "drop", "-seeds", "1", "-expect-fail"}, 1, "lost its teeth", ""},
		{"bogus fsync", []string{"-profile", "drop", "-seeds", "1:3", "-fsync", "bogus", "-expect-fail"}, 2, "", "bogus"},
		{"unknown profile", []string{"-profile", "nosuch", "-seeds", "1"}, 2, "", "nosuch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if tc.out == "" && stdout.Len() != 0 {
				t.Fatalf("usage error ran seeds anyway:\n%s", &stdout)
			}
			if !strings.Contains(stdout.String(), tc.out) {
				t.Fatalf("stdout lacks %q:\n%s", tc.out, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.err) {
				t.Fatalf("stderr lacks %q:\n%s", tc.err, &stderr)
			}
		})
	}
}
