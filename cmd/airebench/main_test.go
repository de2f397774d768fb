package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTables: each table prints its header and at least one data row,
// and an unknown table name is rejected without output.
func TestTables(t *testing.T) {
	const table3Hdr, portingHdr = "== Table 3", "== §7.3"
	cases := []struct {
		table string
		want  []string
	}{
		{"3", []string{table3Hdr}},
		{"porting", []string{portingHdr, "authorize policy"}},
		{"all", []string{table3Hdr, portingHdr}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-table", tc.table}, &stdout, &stderr); code != 0 {
			t.Fatalf("-table %s: exit %d, stderr %q", tc.table, code, &stderr)
		}
		out := stdout.String()
		if strings.Count(out, "\n") < 3 {
			t.Fatalf("-table %s printed no rows:\n%s", tc.table, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Fatalf("-table %s output lacks %q:\n%s", tc.table, w, out)
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "4"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-table 4: exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown table") {
		t.Fatalf("-table 4: stdout %q stderr %q", &stdout, &stderr)
	}
}
