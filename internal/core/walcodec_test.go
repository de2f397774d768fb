package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aire/internal/deliver"
	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/wal/waltest"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// fillExported sets every exported field reachable from v to a non-zero
// value: strings and byte slices to distinct text, signed integers to
// distinct negative numbers, unsigned ones above 2⁶³, bools to true, maps
// to two entries, other slices to two filled elements and pointers to a
// filled value. A kind it does not know fails the test, so a field of a
// new shape is noticed.
func fillExported(t testing.TB, v reflect.Value, path string, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("%s#%d", path, *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(*n) * 1000)
	case reflect.Uint64:
		v.SetUint(1<<63 + uint64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillExported(t, k, path+".key", n)
			fillExported(t, e, path+"[k]", n)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte(fmt.Sprintf("%s#%d", path, *n)))
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillExported(t, s.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillExported(t, p.Elem(), path, n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillExported(t, v.Field(i), path+"."+f.Name, n)
			}
		}
	default:
		t.Fatalf("%s: no filler for kind %s", path, v.Kind())
	}
}

// roundTrip encodes op and decodes it back.
func roundTrip(op *walOp) (walOp, error) {
	got := walOp{Kind: op.Kind}
	d := wire.NewDecoder(string(op.append(nil)))
	return got, got.read(&d)
}

// TestWALCodecCoversEveryField: every exported field of a repair-log
// record, a queued message, a store change and the inbox ops survives a
// round trip through the version-2 op codec, so a field added without
// codec support fails here. A q-del records its delivery ID alone.
func TestWALCodecCoversEveryField(t *testing.T) {
	n := 0
	ops := []walOp{{Kind: "vdb"}, {Kind: "log"}, {Kind: "q-set"}, {Kind: "in-commit"}, {Kind: "in-gc"}, {Kind: "in-vv"}}
	fields := map[string]any{"vdb": &ops[0].VDB, "log": &ops[1].Log, "q-set": &ops[2].QSet, "in-commit": &ops[3].Inbox, "in-gc": &ops[4].InGC, "in-vv": &ops[5].InVV}
	for i := range ops {
		op := &ops[i]
		fillExported(t, reflect.ValueOf(fields[op.Kind]).Elem(), op.Kind, &n)
		got, err := roundTrip(op)
		if err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		if !reflect.DeepEqual(got, *op) {
			t.Errorf("%s: round trip lost a field:\n got %+v\nwant %+v", op.Kind, got, *op)
		}
	}
	del := walOp{Kind: "q-del", QDel: "a-dlv-7"}
	if got, err := roundTrip(&del); err != nil || !reflect.DeepEqual(got, del) {
		t.Errorf("q-del: %+v, %v", got, err)
	}
}

// decodeWALEntry decodes a version-2 entry payload as replay does — the
// wal envelope, then each op — and returns the entry with each op
// re-encoded.
func decodeWALEntry(b []byte) (wal.Entry, error) {
	e, err := wal.DecodeEntry(b)
	if err != nil {
		return e, err
	}
	ops := make([]wal.Op, 0, len(e.Ops))
	err = readEntryOps(e, func(_ int, op *walOp) error {
		ops = append(ops, wal.Op{Kind: op.Kind, Data: op.append(nil)})
		return nil
	})
	e.Ops = ops
	return e, err
}

// checkWALEntry is decodeWALEntry's decode alone, as the fuzz target
// measures it.
func checkWALEntry(b []byte) error {
	e, err := wal.DecodeEntry(b)
	if err != nil {
		return err
	}
	return readEntryOps(e, func(int, *walOp) error { return nil })
}

// sampleWALEntry is an entry holding one of every op kind, every field
// set.
func sampleWALEntry(t testing.TB) []byte {
	n := 0
	e := wal.Entry{Seq: 9, Kind: "repair", Clock: 1 << 20, IDs: 12}
	ops := []walOp{{Kind: "vdb"}, {Kind: "log"}, {Kind: "q-set"}, {Kind: "q-del"}, {Kind: "in-commit"}, {Kind: "in-gc"}, {Kind: "in-vv"}}
	for i := range ops {
		fillExported(t, reflect.ValueOf(&ops[i]).Elem(), "op", &n)
		ops[i].Kind = []string{"vdb", "log", "q-set", "q-del", "in-commit", "in-gc", "in-vv"}[i]
		e.Ops = append(e.Ops, wal.Op{Kind: ops[i].Kind, Data: ops[i].append(nil)})
	}
	return wal.EncodeEntry(&e)
}

// walAllocBytes returns the bytes f allocates per call over 20 calls.
func walAllocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 20
}

// FuzzWALEntryDecode: a WAL entry is read back from disk, so its decoder
// faces whatever bytes a segment holds behind a matching CRC. It never
// panics, never allocates more than 1 KiB plus 64 times its input, and
// whatever it accepts re-encodes to exactly the bytes it was given.
func FuzzWALEntryDecode(f *testing.F) {
	f.Add(sampleWALEntry(f))
	f.Add(wal.EncodeEntry(&wal.Entry{Seq: 1, Kind: "exec"}))
	for _, kind := range []string{"vdb", "log", "q-set", "q-del", "in-commit", "in-gc", "in-vv"} {
		op := walOp{Kind: kind}
		f.Add(wal.EncodeEntry(&wal.Entry{Seq: 2, Kind: "queue", Ops: []wal.Op{{Kind: kind, Data: op.append(nil)}}}))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if n := walAllocBytes(func() { checkWALEntry(b) }); n > 1024+64*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		e, err := decodeWALEntry(b)
		if err != nil {
			return
		}
		if enc := wal.EncodeEntry(&e); !bytes.Equal(enc, b) {
			t.Fatalf("entry does not round-trip:\n%x\n%x", b, enc)
		}
	})
}

// TestWALEntryRefusals: the entry decoder refuses truncated input, a
// trailing byte, a non-minimal length, unsorted or repeated map keys, a
// bool other than 0 or 1, an unknown op kind and a 1 GiB length prefix,
// the last without allocating for it; a segment whose header names
// version 3 is refused as corrupt.
func TestWALEntryRefusals(t *testing.T) {
	good := sampleWALEntry(t)
	if _, err := decodeWALEntry(good); err != nil {
		t.Fatalf("sample entry refused: %v", err)
	}
	entryOf := func(kind string, data ...byte) []byte {
		return wal.EncodeEntry(&wal.Entry{Seq: 1, Kind: "queue", Ops: []wal.Op{{Kind: kind, Data: data}}})
	}
	// A vdb put whose version's fields map holds keys b, a or a, a.
	fields := func(k1, k2 byte) []byte {
		b := []byte("\x03put\x02kv\x01x\x01\x02\x01r\x00\x00\x02")
		b = append(b, 1, k1, 1, 'v', 1, k2, 1, 'v')
		return append(b, 0)
	}
	huge := append(binary.AppendUvarint([]byte{1, 4, 'e', 'x', 'e', 'c', 0, 0, 1, 3, 'l', 'o', 'g'}, 1<<30), "x"...)
	cases := []struct {
		name, want string
		b          []byte
	}{
		{"truncated entry", "truncated", good[:len(good)-1]},
		{"trailing byte", "trailing", append(append([]byte(nil), good...), 0)},
		{"non-minimal length", "malformed length", append([]byte{1, 0x84, 0x00}, "exec\x00\x00\x00"...)},
		{"truncated op", "truncated", entryOf("q-del", 5, 'a')},
		{"trailing op byte", "trailing", entryOf("q-del", 1, 'a', 0)},
		{"non-minimal op length", "malformed length", entryOf("q-del", 0x81, 0x00, 'a')},
		{"unsorted keys", "out of order", entryOf("vdb", fields('b', 'a')...)},
		{"repeated key", "out of order", entryOf("vdb", fields('a', 'a')...)},
		{"bool of 2", "over its bound 1", entryOf("in-commit", 1, 'o', 1, 'i', 0, 2, 0, 0)},
		{"unknown op kind", "unknown wal op kind", entryOf("q-move", 0)},
		{"1 GiB length", "truncated: length 1073741824 over", huge},
		{"1 GiB op length", "truncated: length 1073741824 over", entryOf("q-del", append(binary.AppendUvarint(nil, 1<<30), 'x')...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeWALEntry(tc.b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a refusal saying %q", err, tc.want)
			}
		})
	}
	if n := walAllocBytes(func() { checkWALEntry(huge) }); n > 2048 {
		t.Errorf("refusing a 1 GiB length allocated %d bytes", n)
	}

	dir := t.TempDir()
	seg := binary.BigEndian.AppendUint32(nil, 0xA17E10C5)
	seg = binary.BigEndian.AppendUint32(seg, 3)
	payload := wal.EncodeEntry(&wal.Entry{Seq: 1, Kind: "exec"})
	seg = binary.BigEndian.AppendUint32(seg, uint32(len(payload)))
	seg = binary.BigEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), append(seg, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.Replay(dir, 0, nil); !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Fatalf("version-3 segment: err = %v, want ErrCorrupt naming the version", err)
	}
}

// waveApp is a key-value service that mirrors every put and copy to its
// peers: a copy's write depends on a read of its source, so cancelling
// the source's write repairs every copy (the repair wave's world).
type waveApp struct {
	name  string
	peers []string
}

func (a *waveApp) Name() string                { return a.name }
func (a *waveApp) Authorize(AuthzRequest) bool { return true }

func (a *waveApp) Register(svc *web.Service) {
	svc.Schema.Register("kv")
	write := func(c *web.Ctx, key, val string) wire.Response {
		if err := c.DB.Put("kv", key, orm.Fields("val", val)); err != nil {
			return c.Error(500, err.Error())
		}
		for _, p := range a.peers {
			c.Call(p, put(key, val))
		}
		return c.OK("ok")
	}
	svc.Router.Handle("POST", "/put", func(c *web.Ctx) wire.Response {
		return write(c, c.Form("key"), c.Form("val"))
	})
	svc.Router.Handle("POST", "/copy", func(c *web.Ctx) wire.Response {
		o, ok := c.DB.Get("kv", c.Form("src"))
		if !ok {
			return c.Error(404, "missing")
		}
		return write(c, c.Form("dst"), o.Get("val"))
	})
}

// jsonOf returns what a version-1 segment held as the op's data.
func jsonOf(op *walOp) any {
	return map[string]any{"vdb": op.VDB, "log": op.Log, "q-set": map[string]any{"msg": op.QSet},
		"q-del": map[string]string{"delivery_id": op.QDel}, "in-commit": op.Inbox, "in-gc": op.InGC, "in-vv": op.InVV}[op.Kind]
}

// rewriteAsJSON writes the log in src to dst as one version-1 segment:
// the same entries, each op's data the JSON of the struct it decodes to.
func rewriteAsJSON(t *testing.T, src, dst string) {
	t.Helper()
	var entries []wal.Entry
	if _, _, err := wal.Replay(src, 0, func(e wal.Entry) error {
		v1 := wal.Entry{Seq: e.Seq, Kind: e.Kind, Clock: e.Clock, IDs: e.IDs}
		err := readEntryOps(e, func(_ int, op *walOp) error {
			data, err := json.Marshal(jsonOf(op))
			v1.Ops = append(v1.Ops, wal.Op{Kind: op.Kind, Data: data})
			return err
		})
		entries = append(entries, v1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := waltest.WriteJSONSegment(dst, 1, entries); err != nil {
		t.Fatal(err)
	}
}

// replayed is what recovery rebuilds of a controller, for comparison.
type replayed struct {
	Pending []PendingMsg
	Objects []vdb.ObjectDump
	Records []*repairlog.Record
	Inbox   []deliver.OriginDump
}

// replayInto replays dir's log into c, passing version-1 entries through
// the upgrade first, as persist.Load does.
func replayInto(t *testing.T, c *Controller, dir string) replayed {
	t.Helper()
	deliveryIDs := map[string]string{}
	if _, _, err := wal.Replay(dir, 0, func(e wal.Entry) error {
		if e.Format == wal.FormatJSON {
			var err error
			if e, err = UpgradeV1Entry(e, deliveryIDs); err != nil {
				return err
			}
		}
		return c.ApplyWALEntry(e)
	}); err != nil {
		t.Fatal(err)
	}
	return replayed{c.Pending(), c.Svc.Store.Dump(), c.Svc.Log.All(), c.dedup.Dump()}
}

// TestJSONSegmentReplaysLikeBinary: state a version-1 binary wrote
// recovers, through UpgradeV1Entry, to what the same state recovers to from
// version 2. The world
// is the repair wave's — a hub mirroring to three peers, an attack copied
// into 32 dependents and then cancelled — with one peer offline and one
// refusing repairs, so messages stay queued and parked, and with the
// first peer on a WAL too, so its inbox commits and vector advances are
// logged. Two more puts follow, and that peer then collects garbage. Each WAL is rewritten as a
// version-1 segment of the same op structs as JSON, and a fresh
// controller replays each copy: queue, store, repair log and inbox must
// match. The next commit on the recovered version-1 log opens a version-2
// segment and leaves the version-1 one as it was.
func TestJSONSegmentReplaysLikeBinary(t *testing.T) {
	tb := newTestbed()
	peers := []string{"p0", "p1", "p2"}
	hub := tb.add(&waveApp{name: "hub", peers: peers}, DefaultConfig())
	p0 := tb.add(&kvApp{name: "p0"}, DefaultConfig())
	tb.add(&kvApp{name: "p1"}, DefaultConfig())
	tb.add(&kvApp{name: "p2", authz: func(AuthzRequest) bool { return false }}, DefaultConfig())
	dirs := map[string]string{"hub": t.TempDir(), "p0": t.TempDir()}
	for name, c := range map[string]*Controller{"hub": hub, "p0": p0} {
		w, err := wal.Open(dirs[name], wal.Options{Policy: wal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		c.AttachWAL(w)
		defer w.Close()
	}
	attack := tb.call("hub", put("x", "evil")).Header[wire.HdrRequestID]
	for i := 0; i < 32; i++ {
		if resp := tb.call("hub", wire.NewRequest("POST", "/copy").WithForm("src", "x", "dst", fmt.Sprintf("d%d", i))); !resp.OK() {
			t.Fatalf("copy %d: %+v", i, resp)
		}
	}
	tb.bus.SetOffline("p1", true)
	if _, err := hub.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		hub.Flush()
	}
	for _, k := range []string{"y", "z"} {
		tb.call("hub", put(k, "good"))
	}
	p0.GC(p0.Svc.Clock.Now() / 2)
	for _, c := range []*Controller{hub, p0} {
		if err := c.WALError(); err != nil {
			t.Fatal(err)
		}
	}
	if hub.QueueLen() == 0 {
		t.Fatal("nothing stayed queued on the hub")
	}

	for _, name := range []string{"hub", "p0"} {
		t.Run(name, func(t *testing.T) {
			fresh := func() *Controller {
				if name == "hub" {
					return NewController(&waveApp{name: "hub", peers: peers}, newTestbed().bus, DefaultConfig())
				}
				return NewController(&kvApp{name: name}, newTestbed().bus, DefaultConfig())
			}
			v1dir := t.TempDir()
			rewriteAsJSON(t, dirs[name], v1dir)
			want := replayInto(t, fresh(), dirs[name])
			t.Logf("replayed %d queued messages, %d objects, %d records, %d inbox origins", len(want.Pending), len(want.Objects), len(want.Records), len(want.Inbox))
			c := fresh()
			if got := replayInto(t, c, v1dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("version-1 replay differs from version 2:\n got %+v\nwant %+v", got, want)
			}

			segs, _ := wal.Segments(v1dir)
			v1seg := filepath.Join(v1dir, segs[0])
			before, _ := os.ReadFile(v1seg)
			w, err := wal.Open(v1dir, wal.Options{Policy: wal.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			c.AttachWAL(w)
			c.GC(1)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			after, _ := os.ReadFile(v1seg)
			if !bytes.Equal(before, after) {
				t.Fatal("the version-1 segment changed after recovery")
			}
			var formats []uint32
			last, _, err := wal.Replay(v1dir, 0, func(e wal.Entry) error {
				formats = append(formats, e.Format)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if segs, _ := wal.Segments(v1dir); len(segs) != 2 || last != uint64(len(formats)) || formats[len(formats)-1] != wal.FormatBinary || formats[len(formats)-2] != wal.FormatJSON {
				t.Fatalf("after the next commit: segments %v, last seq %d, formats %v; want a version-2 segment after the version-1 one", segs, last, formats)
			}
		})
	}
}

// TestApplyWALEntryRefusesVersion1: a version-1 entry handed to replay
// without its upgrade is refused by name and changes nothing, not even
// the ID counter; its upgrade applies.
func TestApplyWALEntryRefusesVersion1(t *testing.T) {
	c := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
	e := wal.Entry{Seq: 1, Kind: "exec", Clock: 5, IDs: 7, Format: wal.FormatJSON, Ops: []wal.Op{
		{Kind: "vdb", Data: []byte(`{"kind":"put","key":{"Model":"kv","ID":"x"},"version":{"TS":5,"ReqID":"a-req-1","Fields":{"val":"v"}}}`)},
	}}
	if err := c.ApplyWALEntry(e); err == nil || !strings.Contains(err.Error(), "is format 1; replay reads only format 2") {
		t.Fatalf("version-1 entry: err = %v, want a refusal naming its format", err)
	}
	if n := c.Svc.IDs.Counter(); n != 0 || c.Svc.Store.VersionBytes() != 0 {
		t.Fatalf("the refused entry left ID counter %d and %d version bytes", n, c.Svc.Store.VersionBytes())
	}
	up, err := UpgradeV1Entry(e, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyWALEntry(up); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Svc.Store.Get(vdb.Key{Model: "kv", ID: "x"}); !ok || v.Fields["val"] != "v" || c.Svc.IDs.Counter() != 7 {
		t.Fatalf("upgraded entry applied as %+v (found %v), ID counter %d", v, ok, c.Svc.IDs.Counter())
	}
}
