// Command aireaudit inspects an Aire service's durable state — the data
// directory aireserve (or any persist.Recover caller) keeps, e.g.
// aireserve-data/a — and answers the administrator questions of §2: what
// did a suspect request influence, and what could have influenced an
// observed corruption?
//
//	aireaudit -dir aireserve-data/a -blast <request-id>   # transitive effects
//	aireaudit -dir aireserve-data/a -trace <request-id>   # transitive causes
//	aireaudit -dir aireserve-data/a -dot > deps.dot       # Graphviz export
//	aireaudit -dir aireserve-data/a -list                 # timeline listing
//
// The repair log is rebuilt exactly as recovery would (latest checkpoint,
// then the WAL tail) into a throwaway controller; the directory is only
// read, never modified, so it is safe to audit a live service's data.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aire/internal/audit"
	"aire/internal/core"
	"aire/internal/persist"
	"aire/internal/web"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the smoke test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aireaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "a service's durable state directory: WAL segments + checkpoints (required)")
	blast := fs.String("blast", "", "print the blast radius of this request ID")
	trace := fs.String("trace", "", "print the ancestors of this request ID")
	dot := fs.Bool("dot", false, "emit the dependency graph as Graphviz DOT")
	list := fs.Bool("list", false, "list the request timeline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" || (*blast == "" && *trace == "" && !*dot && !*list) {
		fs.Usage()
		return 2
	}
	c, err := load(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "aireaudit:", err)
		return 1
	}

	g := audit.Build(c.Svc.Log)
	fmt.Fprintf(stderr, "aireaudit: service %q, %d requests, %d dependency edges\n",
		c.Svc.Name, len(g.Requests), len(g.Edges))
	switch {
	case *blast != "":
		ids := g.Descendants(*blast)
		fmt.Fprintf(stdout, "blast radius of %s: %d request(s)/call(s)\n", *blast, len(ids))
		for _, id := range ids {
			fmt.Fprintln(stdout, " ", id)
		}
	case *trace != "":
		ids := g.Ancestors(*trace)
		fmt.Fprintf(stdout, "ancestors of %s: %d request(s)\n", *trace, len(ids))
		for _, id := range ids {
			fmt.Fprintln(stdout, " ", id)
		}
	case *dot:
		fmt.Fprint(stdout, g.DOT(nil))
	case *list:
		for _, r := range c.Svc.Log.All() {
			status := ""
			if r.Skipped {
				status = " [cancelled]"
			}
			fmt.Fprintf(stdout, "%-20s ts=%-12d %-5s %-30s -> %d%s\n", r.ID, r.TS, r.Req.Method, r.Req.Path, r.Resp.Status, status)
		}
	}
	return 0
}

// load rebuilds the service's state from dir read-only (persist.Load). The
// service is named by its latest checkpoint, or by the directory when no
// checkpoint exists yet (aireserve names each service's directory after it).
func load(dir string) (*core.Controller, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	name := filepath.Base(dir)
	cp, err := persist.LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		name = cp.Snap.Service
	}
	c := core.NewController(auditApp(name), nil, core.DefaultConfig())
	if err := persist.Load(c, dir); err != nil {
		return nil, err
	}
	return c, nil
}

// auditApp stands in for the audited application: replay needs only the
// service's name, never its routes or policy.
type auditApp string

func (a auditApp) Name() string                   { return string(a) }
func (auditApp) Register(*web.Service)            {}
func (auditApp) Authorize(core.AuthzRequest) bool { return false }
