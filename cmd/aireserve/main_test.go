package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"aire/internal/wire"
)

// TestRunUsage: an empty -waldir, a removed flag and a bad -fsync value are
// usage errors that exit 2 before anything touches the disk.
func TestRunUsage(t *testing.T) {
	for _, bad := range [][]string{{"-waldir", ""}, {"-batch", "4"}, {"-fsync", "bogus"}} {
		dir := filepath.Join(t.TempDir(), "data")
		args := append([]string{"-a", "127.0.0.1:0", "-b", "127.0.0.1:0", "-waldir", dir}, bad...)
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2\nstderr: %s", bad, code, &stderr)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%v: usage error created %s (stat: %v)", bad, dir, err)
		}
	}
}

// syncBuffer is an io.Writer the test can read while run writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServesAndRepairs drives a live testbed on ephemeral ports: a put
// on a is mirrored to b, a delete repair on a reaches b through the
// background pump, and cancelling the context shuts down with exit 0.
func TestRunServesAndRepairs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-a", "127.0.0.1:0", "-b", "127.0.0.1:0", "-waldir", t.TempDir()}, &stdout, &stderr)
	}()

	ready := regexp.MustCompile(`service a \(mirrors to b\) on (\S+)\n.*service b on (\S+)\n`)
	var urlA, urlB string
	for deadline := time.Now().Add(10 * time.Second); urlA == ""; time.Sleep(10 * time.Millisecond) {
		select {
		case code := <-done:
			t.Fatalf("run exited %d before serving\nstderr: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("testbed not up after 10s\nstdout: %s", stdout.String())
		}
		if m := ready.FindStringSubmatch(stdout.String()); m != nil {
			urlA, urlB = m[1], m[2]
		}
	}

	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	do := func(method, url string, hdr map[string]string) (int, string, http.Header) {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := do("POST", urlA+"/put?key=x&val=hello", nil)
	id := hdr.Get(wire.HdrRequestID)
	if code != 200 || id == "" {
		t.Fatalf("put on a: %d %q, request id %q", code, body, id)
	}
	if code, body, _ := do("GET", urlB+"/get?key=x", nil); code != 200 || body != "hello" {
		t.Fatalf("b before repair: %d %q, want the mirrored value", code, body)
	}
	if code, body, _ := do("POST", urlA+"/aire/repair", map[string]string{wire.HdrRepair: "delete", wire.HdrRequestID: id}); code != 200 {
		t.Fatalf("delete repair on a: %d %q", code, body)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		code, _, _ := do("GET", urlB+"/get?key=x", nil)
		if code == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b still serves the repaired put after 5s (status %d)", code)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("shutdown exit %d, want 0\nstderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}
