package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/wal"
	"aire/internal/wire"
)

// dirContents maps every file name in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestAuditServiceDir: aireaudit reads the directory a recovered service
// keeps — requests logged before the checkpoint come from the checkpoint,
// requests after it from the WAL tail — and leaves it byte-identical.
func TestAuditServiceDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	tb := harness.NewTestbed()
	a := tb.Add(&harness.KVApp{ServiceName: "a"}, core.DefaultConfig())
	w, err := persist.Recover(a, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	put := func(val string) string {
		return tb.MustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", val)).Header[wire.HdrRequestID]
	}
	pre := put("before-checkpoint")
	if _, err := persist.WriteCheckpoint(a, w, dir); err != nil {
		t.Fatal(err)
	}
	post := put("after-checkpoint")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, &stderr)
	}
	for _, id := range []string{pre, post} {
		if !strings.Contains(stdout.String(), id) {
			t.Fatalf("-list lacks request %s:\n%s", id, &stdout)
		}
	}
	if !strings.Contains(stderr.String(), `service "a"`) {
		t.Fatalf("stderr %q does not name the service", &stderr)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("auditing modified the service directory")
	}
}

// TestAuditUsage: a missing -dir is a usage error; an unreadable one fails.
func TestAuditUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 2 {
		t.Fatalf("no -dir: exit %d, want 2", code)
	}
	missing := filepath.Join(t.TempDir(), "absent")
	if code := run([]string{"-dir", missing, "-list"}, &stdout, &stderr); code != 1 {
		t.Fatalf("absent -dir: exit %d, want 1", code)
	}
}
