// Command aireserve runs an Aire-enabled two-service testbed (a notes-like
// KV service mirrored to a feed service) over real HTTP sockets, so the
// repair protocol can be exercised with curl.
//
//	aireserve -a :8031 -b :8032
//
// Example session:
//
//	curl -XPOST 'http://localhost:8031/put?key=x&val=hello'   # mirrored to B
//	curl 'http://localhost:8032/get?key=x'
//	# repair: delete the put on A using the Aire-Request-Id header it returned
//	curl -XPOST http://localhost:8031/aire/repair \
//	     -H 'Aire-Repair: delete' -H "Aire-Request-Id: $ID"
//	curl 'http://localhost:8032/get?key=x'                    # gone after a pump pass
//
// Outgoing repair queues are pumped continuously in the background (§3):
// each service's pump delivers to distinct peers concurrently, batches
// consecutive messages to the same peer, and retries unreachable peers with
// exponential backoff instead of parking their messages.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"aire"
	"aire/internal/harness"
	"aire/internal/obs"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
)

// withDebug mounts the observability surfaces ahead of the wire handler:
// /aire/debug/metrics serves the registry as Prometheus text,
// /aire/debug/waves serves the reconstructed repair waves (max hop depth,
// per-hop latency; ?verbose=1 includes the raw spans) as JSON, and
// /aire/debug/vectors serves every service's sender-side anti-entropy
// vectors (acked prefix, frontier, outstanding deliveries, re-offer state
// per peer). The registry is shared — metric names carry the service
// prefix — so either listener answers for the whole testbed.
func withDebug(reg *obs.Registry, ctrls map[string]*aire.Controller, h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/aire/debug/metrics", reg.Handler())
	mux.Handle("/aire/debug/waves", reg.WavesHandler())
	mux.HandleFunc("/aire/debug/vectors", func(w http.ResponseWriter, _ *http.Request) {
		dump := map[string][]aire.PeerVectorDump{}
		for name, c := range ctrls {
			dump[name] = c.VectorDump()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(dump)
	})
	mux.Handle("/", h)
	return mux
}

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	cancel()
	os.Exit(code)
}

// run is main without the process exit, so the smoke test can drive it: it
// serves until ctx is cancelled. Exit codes: 0 clean shutdown, 1 the
// HTTP server timeouts: a client that stalls mid-request, or never sends
// one, loses its connection instead of holding it, while a frame-sized
// repair request still has time to arrive and be answered.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 90 * time.Second
)

// testbed failed to start or serve, 2 usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aireserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrA := fs.String("a", "127.0.0.1:8031", "listen address for service a")
	addrB := fs.String("b", "127.0.0.1:8032", "listen address for service b")
	waldir := fs.String("waldir", "aireserve-data", "durable state directory (per-service WAL + checkpoints; required)")
	fsync := fs.String("fsync", "every", "WAL fsync policy: every, interval, none")
	cpEvery := fs.Duration("checkpoint-interval", 30*time.Second, "how often each service checkpoints and truncates its WAL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *waldir == "" {
		fmt.Fprintln(stderr, "aireserve: -waldir must name a directory: durable state is not optional")
		fs.Usage()
		return 2
	}
	pol, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fmt.Fprintln(stderr, "aireserve:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "aireserve:", err)
		return 1
	}

	// Bind both listeners before any WAL opens, so a busy port fails with
	// nothing to undo; the caller's URLs come from the bound addresses, so
	// ":0" works.
	names := []string{"a", "b"}
	lns := map[string]net.Listener{}
	urls := map[string]string{}
	for i, addr := range []string{*addrA, *addrB} {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fail(err)
		}
		defer ln.Close()
		lns[names[i]], urls[names[i]] = ln, "http://"+ln.Addr().String()
	}

	reg := obs.New(obs.DefaultRingCap)
	cfg := aire.DefaultConfig()
	cfg.Obs = reg
	caller := &transport.HTTPCaller{BaseURLs: urls, Obs: reg}
	ctrls := map[string]*aire.Controller{
		"a": aire.NewServiceWithConfig(&harness.KVApp{ServiceName: "a", Mirror: "b"}, caller, cfg),
		"b": aire.NewServiceWithConfig(&harness.KVApp{ServiceName: "b"}, caller, cfg),
	}

	// Recover durable state (and attach the WAL) before serving traffic: a
	// restarted aireserve resumes with its repair logs, versioned stores,
	// outgoing queues, and dedup inboxes intact, then checkpoints in the
	// background so the WAL stays bounded.
	for _, name := range names {
		dir := filepath.Join(*waldir, name)
		w, err := persist.Recover(ctrls[name], dir, wal.Options{Policy: pol})
		if err != nil {
			return fail(fmt.Errorf("recover %s from %s: %w", name, dir, err))
		}
		stopCp := persist.StartCheckpointer(ctx, ctrls[name], w, dir, *cpEvery, func(err error) {
			fmt.Fprintf(stderr, "aireserve: checkpoint %s: %v\n", name, err)
		})
		// Defers run LIFO: register the close first so the checkpointer
		// (which may be mid-checkpoint) stops before its writer closes.
		defer w.Close()
		defer stopCp()
	}
	fmt.Fprintf(stdout, "aire: durable state in %s (fsync=%s, checkpoint every %v)\n", *waldir, pol, *cpEvery)

	// Servers shut down after the pumps drain (the pumps deliver through
	// them) and before the WALs close (their handlers append to them).
	serveErr := make(chan error, len(names))
	for _, name := range names {
		srv := &http.Server{
			Handler:           withDebug(reg, ctrls, transport.NewHTTPHandler(ctrls[name])),
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			WriteTimeout:      writeTimeout,
			IdleTimeout:       idleTimeout,
		}
		go func() { serveErr <- srv.Serve(lns[name]) }()
		defer srv.Shutdown(context.WithoutCancel(ctx))
	}
	stopPumps, err := aire.StartPumps(ctx, ctrls["a"], ctrls["b"])
	if err != nil {
		return fail(err)
	}
	defer stopPumps()

	fmt.Fprintf(stdout, "aire: service a (mirrors to b) on %s\n", urls["a"])
	fmt.Fprintf(stdout, "aire: service b on %s\n", urls["b"])
	fmt.Fprintln(stdout, "aire: background repair pumps running")
	fmt.Fprintln(stdout, "aire: try POST /put?key=x&val=hello on a, then GET /get?key=x on b,")
	fmt.Fprintln(stdout, "aire: then POST /aire/repair with Aire-Repair: delete + Aire-Request-Id headers")
	fmt.Fprintln(stdout, "aire: observability at /aire/debug/metrics, /aire/debug/waves and /aire/debug/vectors on either service")
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "aire: shutting down, draining repair pumps")
		return 0
	case err := <-serveErr:
		return fail(err)
	}
}
