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
//	curl 'http://localhost:8032/get?key=x'                    # gone within -pump-interval
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
	"log"
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
	addrA := flag.String("a", "127.0.0.1:8031", "listen address for service a")
	addrB := flag.String("b", "127.0.0.1:8032", "listen address for service b")
	workers := flag.Int("pump-workers", 4, "concurrent per-peer repair deliveries")
	batch := flag.Int("batch", 16, "max repair messages batched to one peer per pass")
	interval := flag.Duration("pump-interval", 100*time.Millisecond, "pacing of background pump passes")
	waldir := flag.String("waldir", "aireserve-data", "durable state directory (per-service WAL + checkpoints; required)")
	fsync := flag.String("fsync", "every", "WAL fsync policy: every, interval, none")
	cpEvery := flag.Duration("checkpoint-interval", 30*time.Second, "how often each service checkpoints and truncates its WAL")
	flag.Parse()
	if *waldir == "" {
		fmt.Fprintln(os.Stderr, "aireserve: -waldir must name a directory: durable state is not optional")
		flag.Usage()
		os.Exit(2)
	}

	reg := obs.New(obs.DefaultRingCap)
	cfg := aire.DefaultConfig()
	cfg.Obs = reg
	cfg.PumpWorkers = *workers
	cfg.BatchSize = *batch
	cfg.PumpInterval = *interval

	caller := &transport.HTTPCaller{BaseURLs: map[string]string{
		"a": "http://" + *addrA,
		"b": "http://" + *addrB,
	}, Obs: reg}
	ctrlA := aire.NewServiceWithConfig(&harness.KVApp{ServiceName: "a", Mirror: "b"}, caller, cfg)
	ctrlB := aire.NewServiceWithConfig(&harness.KVApp{ServiceName: "b"}, caller, cfg)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Recover durable state (and attach the WAL) before serving traffic: a
	// restarted aireserve resumes with its repair logs, versioned stores,
	// outgoing queues, and dedup inboxes intact, then checkpoints in the
	// background so the WAL stays bounded.
	pol, err := wal.ParsePolicy(*fsync)
	if err != nil {
		log.Fatalf("aire: %v", err)
	}
	for _, s := range []struct {
		name string
		ctrl *aire.Controller
	}{{"a", ctrlA}, {"b", ctrlB}} {
		dir := filepath.Join(*waldir, s.name)
		w, err := persist.Recover(s.ctrl, dir, wal.Options{Policy: pol})
		if err != nil {
			log.Fatalf("aire: recover %s from %s: %v", s.name, dir, err)
		}
		name := s.name
		stopCp := persist.StartCheckpointer(ctx, s.ctrl, w, dir, *cpEvery, func(err error) {
			log.Printf("aire: checkpoint %s: %v", name, err)
		})
		// Defers run LIFO: register the close first so the checkpointer
		// (which may be mid-checkpoint) stops before its writer closes.
		defer w.Close()
		defer stopCp()
	}
	fmt.Printf("aire: durable state in %s (fsync=%s, checkpoint every %v)\n", *waldir, pol, *cpEvery)

	ctrls := map[string]*aire.Controller{"a": ctrlA, "b": ctrlB}
	go func() {
		log.Fatal(http.ListenAndServe(*addrA, withDebug(reg, ctrls, transport.NewHTTPHandler(ctrlA))))
	}()
	go func() {
		log.Fatal(http.ListenAndServe(*addrB, withDebug(reg, ctrls, transport.NewHTTPHandler(ctrlB))))
	}()
	stopPumps, err := aire.StartPumps(ctx, ctrlA, ctrlB)
	if err != nil {
		log.Fatal(err)
	}
	defer stopPumps()

	fmt.Printf("aire: service a (mirrors to b) on http://%s\n", *addrA)
	fmt.Printf("aire: service b on http://%s\n", *addrB)
	fmt.Printf("aire: background repair pumps running (workers=%d batch=%d interval=%v)\n",
		*workers, *batch, *interval)
	fmt.Println("aire: try POST /put?key=x&val=hello on a, then GET /get?key=x on b,")
	fmt.Println("aire: then POST /aire/repair with Aire-Repair: delete + Aire-Request-Id headers")
	fmt.Println("aire: observability at /aire/debug/metrics, /aire/debug/waves and /aire/debug/vectors on either service")
	<-ctx.Done()
	fmt.Println("aire: shutting down, draining repair pumps")
}
