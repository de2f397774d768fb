package harness

import (
	"fmt"
	"math/rand"
	"testing"

	"aire/internal/core"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/wire"
)

// mirroredPuts is how many puts TestMirroredPutWALPinned averages over.
const mirroredPuts = 200

// putValue draws a put.aire-like value: 16–256 bytes of letters, digits
// and a space every eighth byte.
func putValue(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, 16+rng.Intn(241))
	for i := range b {
		if i%8 == 7 {
			b[i] = ' '
		} else {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return string(b)
}

// TestMirroredPutWALPinned pins what a mirrored put costs the hub's WAL,
// in counts: the put.aire benchmark's path on the in-process bus, a hub
// that mirrors every put to three KVApp peers, with seeded 16–256-byte
// values. Each put is one commit, so one entry; its bytes are the
// request's vdb put and repair-log append, the same on every host and
// every run. The allocations per put, measured with the collector off on
// one P as the other cost pins are, hold under a ceiling.
//
// Both fell when WAL entries became binary (segment version 2): 390 298 →
// 237 740 bytes and 183 → 143 allocations per put, since the record and
// the store change are no longer JSON with every field name spelled out,
// and no op goes through reflection.
func TestMirroredPutWALPinned(t *testing.T) {
	const (
		bytes     = 237740 // hub WAL bytes written by the 200 puts
		entries   = mirroredPuts
		maxAllocs = 157 // per put (measured 143)
	)
	bus := transport.NewBus()
	hub := core.NewController(&KVApp{ServiceName: waveHub, Mirrors: wavePeers}, bus, core.DefaultConfig())
	bus.Register(waveHub, hub)
	for _, p := range wavePeers {
		bus.Register(p, core.NewController(&KVApp{ServiceName: p}, bus, core.DefaultConfig()))
	}
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	hub.AttachWAL(w)

	rng := rand.New(rand.NewSource(1))
	reqs := make([]wire.Request, mirroredPuts)
	for i := range reqs {
		reqs[i] = wire.NewRequest("POST", "/put").WithForm("key", fmt.Sprintf("k%d", i), "val", putValue(rng))
	}
	bytes0, seq0 := walDirBytes(t, dir), w.Seq()
	next := 0
	allocs, _ := perOp(0, mirroredPuts, func() {
		resp, err := bus.Call("", waveHub, reqs[next])
		if err != nil || !resp.OK() {
			t.Fatalf("put %d: %v %+v", next, err, resp)
		}
		next++
	})
	if err := hub.WALError(); err != nil {
		t.Fatal(err)
	}
	gotBytes, gotEntries := walDirBytes(t, dir)-bytes0, w.Seq()-seq0
	t.Logf("%d puts: %d WAL bytes (%.1f per put), %d entries, %.1f allocs per put",
		mirroredPuts, gotBytes, float64(gotBytes)/mirroredPuts, gotEntries, allocs)
	if gotBytes != bytes || gotEntries != entries {
		t.Errorf("%d puts = %d WAL bytes, %d entries; want %d, %d", mirroredPuts, gotBytes, gotEntries, bytes, entries)
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own; ceilings are checked without it")
	}
	if allocs > maxAllocs {
		t.Errorf("mirrored put = %.1f allocs, ceiling %d", allocs, maxAllocs)
	}
}
