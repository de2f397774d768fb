// Package wal implements the append-only write-ahead log that gives Aire's
// prototype a real durability story (ROADMAP item 1).
//
// Layout: a WAL directory holds segment files named wal-%016d.seg, where the
// number is the sequence of the first entry the segment may contain. Each
// segment starts with an 8-byte header (4-byte magic + 4-byte format
// version) and is followed by length-prefixed records:
//
//	[4B big-endian payload length][4B big-endian CRC32 (IEEE) of payload][payload]
//
// Each payload is one Entry — one atomic commit, carrying the full change
// set of that commit (vdb puts/rollbacks/GC, repair-log appends/updates,
// queue and inbox transitions) plus the logical clock and ID-generator
// positions observed at commit time. Every segment written is version 2,
// whose payload is binary:
//
//	entry = uvarint(seq) str(kind) varint(clock) varint(ids) uvarint(n) op{n}
//	op    = str(kind) str(data)
//	str   = uvarint(len) byte{len}
//
// with varints zigzag-encoded, every uvarint minimal, and nothing after the
// last op. An op's data is opaque here: its owner (internal/core) encodes
// and decodes it. Version-1 segments, whose payloads are JSON, are still
// read so that old state can be upgraded: their entries come back with
// Format FormatJSON, and internal/persist upgrades them to version 2
// before replaying them, then deletes the segments once a checkpoint
// covers them. The header alone chooses the decoder, and Open starts a
// fresh version-2 segment rather than append to a version-1 one, so no
// segment mixes formats.
//
// Durability policy is configurable (FsyncEveryCommit / FsyncInterval /
// FsyncNone) so that fsync lag is an injectable simulator fault rather than a
// feared one: the writer tracks the durable offset (everything at or below it
// has been fsynced) and CrashLose simulates power loss by truncating the
// active segment back to that offset. A process crash without power loss
// keeps buffered-but-unsynced records, which the simulator models by simply
// not calling CrashLose.
//
// Replay tolerates a torn final record (partial write at the tail of the last
// segment) but treats any other framing or CRC violation as loud corruption:
// a committed record is never silently dropped.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aire/internal/wire"
)

const (
	segMagic   uint32 = 0xA17E10C5 // "aire log"
	headerSize        = 8
	frameSize         = 8 // length + crc
	// DefaultSegmentBytes is the rotation threshold for segment files.
	DefaultSegmentBytes = 4 << 20
)

// Segment format versions. A segment's header names its version, and every
// entry read from it carries the version as Entry.Format.
const (
	// FormatJSON is version 1: JSON entries whose op data is JSON. It is
	// read, never written.
	FormatJSON uint32 = 1
	// FormatBinary is version 2, the binary layout above: every segment
	// the writer creates.
	FormatBinary uint32 = 2
)

// ErrCorrupt wraps all non-torn corruption detected during replay.
var ErrCorrupt = errors.New("wal: corrupt log")

// FsyncPolicy selects when appended records become durable.
type FsyncPolicy int

const (
	// FsyncEveryCommit fsyncs after every Append: no committed record is
	// ever lost to power failure.
	FsyncEveryCommit FsyncPolicy = iota
	// FsyncInterval fsyncs every Interval-th Append (and on rotation/close).
	// A power failure can lose up to Interval-1 trailing commits.
	FsyncInterval
	// FsyncNone never fsyncs explicitly; power failure can lose everything
	// in the active segment. Process crashes without power loss lose nothing.
	FsyncNone
)

// String names the policy the way command-line flags spell it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncEveryCommit:
		return "every"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParsePolicy parses a flag-style policy name.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "every", "every-commit", "always":
		return FsyncEveryCommit, nil
	case "interval":
		return FsyncInterval, nil
	case "none", "never":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want every|interval|none)", s)
}

// Op is one operation inside a commit's change set. Kind selects the
// decoder ("vdb", "log", "q-set", "in-commit", ...); Data is the
// kind-specific payload, encoded by the op's owner in the format of the
// segment it is in. An op read back aliases the segment's bytes, which
// nothing writes to.
type Op struct {
	Kind string
	Data []byte
}

// Entry is one committed change set.
type Entry struct {
	// Seq is the entry's position in the log, starting at 1.
	Seq uint64
	// Kind labels the commit that produced the entry ("exec", "repair",
	// "queue", "inbox", "gc", ...); informational.
	Kind string
	// Clock is the service logical-clock position observed at append time.
	Clock int64
	// IDs is the idgen counter observed at append time.
	IDs int64
	// Ops is the ordered change set.
	Ops []Op
	// Format is the version of the segment the entry was read from, which
	// says how its op data is encoded; Append ignores it.
	Format uint32
}

// Options configures a Writer.
type Options struct {
	// Policy selects the fsync policy; default FsyncEveryCommit.
	Policy FsyncPolicy
	// Interval is the commit count between fsyncs under FsyncInterval;
	// default 8.
	Interval int
	// SegmentBytes is the rotation threshold; default DefaultSegmentBytes.
	SegmentBytes int64
	// OnAppend / OnSync, when non-nil, observe the latency of each entry
	// append (encode + frame + write, under the writer lock) and each
	// fsync that actually reached the disk. They are the wal package's
	// whole observability surface — wal stays free of the obs dependency;
	// internal/persist wires these to the owning controller's registry.
	// Hooks must be fast and must not call back into the writer.
	OnAppend func(d time.Duration)
	OnSync   func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 8
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Writer appends entries to the log directory. Safe for concurrent use.
//
// Fsyncs are group commits: the frame write happens under mu, but the
// flush itself runs under syncMu only, so concurrent Appends never queue
// behind each other's disk latency — whichever appender reaches the disk
// first makes every already-written entry durable, and the rest return
// without issuing their own fsync.
type Writer struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f       *os.File // active segment
	off     int64    // logical end offset of active segment
	durable int64    // offset of active segment known to be on disk
	seq     uint64   // last appended entry seq
	pending int      // appends since last fsync (FsyncInterval)
	closed  bool

	// err is the first write, fsync or rotation failure; every later
	// append and sync returns it. A partial frame may sit at the tail, and
	// a failed fsync may have lost pages a later fsync would not report.
	err error

	// durSeq is the last entry seq known durable; epoch counts segment
	// rotations so a sync completion can tell whether its captured offsets
	// still describe the active segment. Both guarded by mu.
	durSeq uint64
	epoch  uint64

	// syncMu serializes fsyncs; it is never held together with mu, so an
	// in-flight flush blocks neither appends nor crash simulation.
	syncMu sync.Mutex
}

// syncDir flushes dir's entry table so renames, creations, and removals
// inside it survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory, making file creations, renames, and removals
// inside it durable. Checkpointing uses it to pin the checkpoint's
// directory entry before the covered WAL segments are deleted.
func SyncDir(dir string) error { return syncDir(dir) }

func segName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016d.seg", firstSeq)
}

func segFirstSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Segments lists the segment files in dir in ascending first-seq order.
func Segments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if _, ok := segFirstSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Open opens (creating if necessary) the log in dir, scans existing
// segments, truncates a torn tail off the final segment, and positions the
// writer after the last intact entry. Mid-log corruption is returned as an
// error wrapping ErrCorrupt.
func Open(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts}

	names, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		if err := w.rotateLocked(1); err != nil {
			return nil, err
		}
		return w, nil
	}

	// Validate every segment; only the last may have a torn tail. Earlier
	// segments may have been truncated away by checkpoints, so seq
	// continuity starts at the first segment's named first-seq.
	first, _ := segFirstSeq(names[0])
	lastSeq := first - 1
	for i, name := range names {
		final := i == len(names)-1
		path := filepath.Join(dir, name)
		end, last, torn, version, err := readSegment(path, lastSeq, final, nil)
		if err != nil {
			return nil, err
		}
		lastSeq = last
		if !final {
			continue
		}
		w.seq = lastSeq
		if end < headerSize {
			// Torn before the header was durable: rebuild the segment.
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			if err := w.rotateLocked(lastSeq + 1); err != nil {
				return nil, err
			}
			return w, nil
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if torn {
			if err := f.Truncate(end); err != nil {
				f.Close()
				return nil, err
			}
		}
		if version != FormatBinary {
			// A version-1 tail is never appended to: it is closed as a
			// finished segment (synced, so a cut tail stays cut) and a
			// version-2 segment starts after it. If it holds no entry, the
			// new segment has its name and replaces it.
			w.f = f
			if err := w.rotateLocked(lastSeq + 1); err != nil {
				return nil, err
			}
			return w, nil
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		w.f = f
		w.off = end
		w.durable = end // survived restart ⇒ treat as durable baseline
		w.durSeq = lastSeq
	}
	return w, nil
}

// readSegment decodes one segment: it checks the header, then each
// record's framing, length and CRC, and its payload in the segment's
// format, and that entry seqs ascend by one from prevSeq, passing every
// intact entry to fn (when non-nil) as it goes; with fn nil a version-2
// payload is checked without building its entry. It returns the offset
// just past the last intact entry, the last intact seq (prevSeq if none),
// whether the segment ends in a torn tail (a partial header, frame or
// payload, which only the final segment may have) and the segment's
// format version. Anything else is an error wrapping ErrCorrupt, or fn's
// error.
func readSegment(path string, prevSeq uint64, final bool, fn func(Entry) error) (end int64, lastSeq uint64, torn bool, version uint32, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, prevSeq, false, 0, err
	}
	name := filepath.Base(path)
	tornAt := func(off int64, what string) (int64, uint64, bool, uint32, error) {
		if !final {
			return off, prevSeq, false, version, fmt.Errorf("%w: segment %s: torn %s in non-final segment", ErrCorrupt, name, what)
		}
		return off, prevSeq, true, version, nil
	}
	corrupt := func(format string, args ...any) (int64, uint64, bool, uint32, error) {
		return 0, prevSeq, false, version, fmt.Errorf("%w: segment %s: "+format, append([]any{ErrCorrupt, name}, args...)...)
	}
	if len(data) < headerSize {
		// A header-less segment can only arise from a torn create.
		return tornAt(0, "header")
	}
	if binary.BigEndian.Uint32(data[0:4]) != segMagic {
		return corrupt("bad magic")
	}
	version = binary.BigEndian.Uint32(data[4:8])
	if version != FormatJSON && version != FormatBinary {
		return corrupt("unsupported version %d", version)
	}
	// Entry and op kinds repeat across a segment; its entries share one
	// copy of each.
	var kinds map[string]string
	if fn != nil {
		kinds = make(map[string]string)
	}
	off := int64(headerSize)
	for off < int64(len(data)) {
		if off+frameSize > int64(len(data)) {
			return tornAt(off, "frame")
		}
		ln := binary.BigEndian.Uint32(data[off : off+4])
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		if ln == 0 || ln > 64<<20 {
			return corrupt("absurd record length %d at offset %d", ln, off)
		}
		if off+frameSize+int64(ln) > int64(len(data)) {
			return tornAt(off, "payload")
		}
		payload := data[off+frameSize : off+frameSize+int64(ln)]
		if crc32.ChecksumIEEE(payload) != crc {
			return corrupt("CRC mismatch at offset %d", off)
		}
		var e Entry
		var err error
		if version == FormatJSON {
			e, err = decodeJSONEntry(payload)
		} else if fn == nil {
			e.Seq, err = decodeEntry(payload, nil, nil)
		} else {
			_, err = decodeEntry(payload, &e, kinds)
		}
		if err != nil {
			return corrupt("undecodable entry at offset %d: %v", off, err)
		}
		if e.Seq != prevSeq+1 {
			return corrupt("seq %d follows %d", e.Seq, prevSeq)
		}
		prevSeq = e.Seq
		if fn != nil {
			if err := fn(e); err != nil {
				return off, prevSeq, false, version, err
			}
		}
		off += frameSize + int64(ln)
	}
	return off, prevSeq, false, version, nil
}

// decodeJSONEntry decodes a version-1 payload: the entry's fields under
// their lower-case names, each op's data as raw JSON.
func decodeJSONEntry(payload []byte) (Entry, error) {
	var j struct {
		Entry
		Ops []struct {
			Kind string
			Data json.RawMessage
		}
	}
	err := json.Unmarshal(payload, &j)
	e := j.Entry
	for _, op := range j.Ops {
		e.Ops = append(e.Ops, Op{Kind: op.Kind, Data: op.Data})
	}
	e.Format = FormatJSON
	return e, err
}

// rotateLocked opens a fresh segment whose name claims firstSeq.
func (w *Writer) rotateLocked(firstSeq uint64) error {
	if w.f != nil {
		// Finished segments are always synced so that only the active
		// segment's tail is ever volatile.
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	path := filepath.Join(w.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], FormatBinary)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	// Pin the new segment's directory entry: without this a power loss can
	// drop the file itself even though its contents were synced, leaving a
	// sequence gap that replay reports as corruption.
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.off = headerSize
	w.durable = headerSize
	w.pending = 0
	// Everything before the fresh segment was synced above (or at Open),
	// so every already-assigned seq is durable.
	w.durSeq = w.seq
	w.epoch++
	return nil
}

// Append writes one entry and applies the fsync policy, returning the
// entry's assigned sequence number. The flush (when the policy demands one)
// happens outside w.mu as a group commit — see SyncTo.
func (w *Writer) Append(kind string, clock, ids int64, ops []Op) (uint64, error) {
	seq, syncNeeded, err := w.AppendDeferred(kind, clock, ids, ops)
	if err != nil {
		return 0, err
	}
	if syncNeeded {
		if err := w.SyncTo(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// AppendDeferred writes one entry without flushing it, reporting whether
// the fsync policy owes a flush. Callers on a hot lock-held path use it to
// commit under their own lock and run the owed SyncTo after releasing it,
// so the disk flush serializes nothing but the disk.
func (w *Writer) AppendDeferred(kind string, clock, ids int64, ops []Op) (seq uint64, syncNeeded bool, err error) {
	var appendStart time.Time
	if w.opts.OnAppend != nil {
		appendStart = time.Now()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, false, errors.New("wal: writer closed")
	}
	if w.err != nil {
		return 0, false, w.err
	}
	if w.off >= w.opts.SegmentBytes {
		if err := w.rotateLocked(w.seq + 1); err != nil {
			w.err = err
			return 0, false, err
		}
	}
	seq = w.seq + 1
	buf := encodeFrame(&Entry{Seq: seq, Kind: kind, Clock: clock, IDs: ids, Ops: ops})
	if _, err := w.f.Write(buf); err != nil {
		w.err = err
		return 0, false, err
	}
	w.off += int64(len(buf))
	w.seq = seq

	switch w.opts.Policy {
	case FsyncEveryCommit:
		syncNeeded = true
	case FsyncInterval:
		w.pending++
		if w.pending >= w.opts.Interval {
			w.pending = 0
			syncNeeded = true
		}
	case FsyncNone:
		// never owed
	}
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(time.Since(appendStart))
	}
	return seq, syncNeeded, nil
}

// encodeFrame returns e framed for the segment — the length and CRC header
// followed by e's version-2 payload — built in one buffer.
func encodeFrame(e *Entry) []byte {
	size := frameSize + 4*binary.MaxVarintLen64 + wire.StrSize(len(e.Kind))
	for _, op := range e.Ops {
		size += wire.StrSize(len(op.Kind)) + wire.StrSize(len(op.Data))
	}
	b := appendEntry(make([]byte, frameSize, size), e)
	payload := b[frameSize:]
	binary.BigEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return b
}

// EncodeEntry returns e's version-2 payload; DecodeEntry reads it back.
func EncodeEntry(e *Entry) []byte { return appendEntry(nil, e) }

// DecodeEntry parses a version-2 payload. It refuses a non-minimal
// uvarint, a length or count larger than the bytes left, and trailing
// bytes, so an accepted payload re-encodes to the bytes it came from. The
// ops' data alias payload.
func DecodeEntry(payload []byte) (Entry, error) {
	var e Entry
	_, err := decodeEntry(payload, &e, nil)
	return e, err
}

func appendEntry(b []byte, e *Entry) []byte {
	b = binary.AppendUvarint(b, e.Seq)
	b = wire.AppendStr(b, e.Kind)
	b = binary.AppendVarint(b, e.Clock)
	b = binary.AppendVarint(b, e.IDs)
	b = binary.AppendUvarint(b, uint64(len(e.Ops)))
	for _, op := range e.Ops {
		b = wire.AppendStr(b, op.Kind)
		b = wire.AppendStr(b, op.Data)
	}
	return b
}

// decodeEntry parses a version-2 payload into e and returns its seq; with
// e nil it only checks the payload. Kinds are interned in kinds when it is
// non-nil.
func decodeEntry(payload []byte, e *Entry, kinds map[string]string) (uint64, error) {
	r := reader{b: payload}
	seq := r.uvarint(math.MaxUint64)
	kind := r.bytes()
	clock, ids := r.varint(), r.varint()
	// Each op takes at least two bytes, its two lengths.
	n := int(r.uvarint(uint64(r.left() / 2)))
	if e != nil {
		*e = Entry{Seq: seq, Kind: intern(kinds, kind), Clock: clock, IDs: ids, Format: FormatBinary}
		if n > 0 && r.err == nil {
			e.Ops = make([]Op, n)
		}
	}
	for i := 0; i < n && r.err == nil; i++ {
		opKind, data := r.bytes(), r.bytes()
		if e != nil && r.err == nil {
			e.Ops[i] = Op{Kind: intern(kinds, opKind), Data: data}
		}
	}
	if r.err == nil && r.left() > 0 {
		r.err = fmt.Errorf("%d trailing bytes", r.left())
	}
	return seq, r.err
}

// intern returns b as a string, the same string for equal bytes when
// kinds is non-nil.
func intern(kinds map[string]string, b []byte) string {
	if kinds == nil {
		return string(b)
	}
	if s, ok := kinds[string(b)]; ok {
		return s
	}
	s := string(b)
	kinds[s] = s
	return s
}

// reader reads a version-2 payload. The first failure sticks: later reads
// return zero values.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) left() int { return len(r.b) - r.off }

// uvarint reads one minimally encoded uvarint no larger than limit.
func (r *reader) uvarint(limit uint64) uint64 {
	if r.err != nil {
		return 0
	}
	x, k, err := wire.ReadUvarint(r.b[r.off:], limit)
	if err != nil {
		r.err = err
		return 0
	}
	r.off += k
	return x
}

func (r *reader) varint() int64 {
	u := r.uvarint(math.MaxUint64)
	return int64(u>>1) ^ -int64(u&1)
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (r *reader) bytes() []byte {
	n := int(r.uvarint(math.MaxInt32))
	if r.err == nil && n > r.left() {
		r.err = fmt.Errorf("truncated: length %d over the %d bytes left", n, r.left())
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

// SyncTo blocks until every entry up to and including seq is durable. It is
// the group-commit rendezvous: concurrent callers pile up on syncMu, the
// first fsync covers everything written before it started, and the rest
// observe durSeq and return without touching the disk.
func (w *Writer) SyncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if err := w.err; err != nil || w.durSeq >= seq || w.f == nil {
		w.mu.Unlock()
		return err
	}
	f, off, cur, epoch := w.f, w.off, w.seq, w.epoch
	w.mu.Unlock()
	var syncStart time.Time
	if w.opts.OnSync != nil {
		syncStart = time.Now()
	}
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
		return err
	}
	if w.opts.OnSync != nil {
		w.opts.OnSync(time.Since(syncStart))
	}
	w.mu.Lock()
	if w.epoch == epoch {
		// The captured offsets still describe the active segment; a
		// rotation in the window would have marked everything durable
		// itself (finished segments are synced on rotation).
		if off > w.durable {
			w.durable = off
		}
		if cur > w.durSeq {
			w.durSeq = cur
		}
		w.pending = 0
	}
	w.mu.Unlock()
	return nil
}

// Sync forces everything appended so far onto disk.
func (w *Writer) Sync() error {
	_, err := w.SyncedSeq()
	return err
}

// SyncedSeq forces everything appended so far onto disk and returns the
// sequence it covered: on return every entry at or below it is durable.
// Checkpointing uses this (rather than Sync then Seq) so the covered
// sequence can never include an entry appended — but not yet flushed —
// between the two calls.
func (w *Writer) SyncedSeq() (uint64, error) {
	w.mu.Lock()
	seq := w.seq
	w.mu.Unlock()
	if err := w.SyncTo(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// Seq returns the sequence of the last appended entry (0 if none).
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// CrashLose simulates power loss: every byte of the active segment past the
// last fsync is discarded, and the writer becomes unusable. Finished
// segments are unaffected (they are synced at rotation). Returns the number
// of bytes dropped.
func (w *Writer) CrashLose() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		w.closed = true
		return 0, nil
	}
	lost := w.off - w.durable
	name := w.f.Name()
	w.f.Close()
	w.f = nil
	w.closed = true
	if lost > 0 {
		if err := os.Truncate(name, w.durable); err != nil {
			return 0, err
		}
	}
	return lost, nil
}

// Close syncs and closes the active segment. A process exiting cleanly
// (or crashing without power loss) keeps everything appended.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Replay streams every intact entry with Seq > fromSeq to fn, in order. It
// returns the last sequence seen (across the whole log, even entries at or
// below fromSeq) and whether a torn tail was skipped on the final segment.
// Any other corruption — CRC mismatch, bad framing, a torn non-final
// segment, a sequence gap — is returned as an error wrapping ErrCorrupt so
// that a committed record is never silently dropped.
func Replay(dir string, fromSeq uint64, fn func(Entry) error) (lastSeq uint64, torn bool, err error) {
	names, err := Segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	var prev uint64
	if len(names) > 0 {
		// Checkpoint truncation may have removed the log prefix; continuity
		// starts at the first remaining segment's named first-seq.
		first, _ := segFirstSeq(names[0])
		prev = first - 1
	}
	for i, name := range names {
		_, last, torn, _, err := readSegment(filepath.Join(dir, name), prev, i == len(names)-1, func(e Entry) error {
			if e.Seq > fromSeq && fn != nil {
				return fn(e)
			}
			return nil
		})
		prev = last
		if err != nil || torn {
			return prev, torn, err
		}
	}
	return prev, false, nil
}

// Truncate removes segments wholly covered by a checkpoint at upToSeq: a
// segment is deleted only when a later segment exists whose first sequence
// is ≤ upToSeq+1 (so replay from upToSeq+1 still finds every needed entry).
// The active (latest) segment is never deleted. Returns removed file names.
func Truncate(dir string, upToSeq uint64) ([]string, error) {
	names, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for i := 0; i+1 < len(names); i++ {
		next, _ := segFirstSeq(names[i+1])
		if next <= upToSeq+1 {
			if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
				return removed, err
			}
			removed = append(removed, names[i])
		} else {
			break
		}
	}
	if len(removed) > 0 {
		// Make the removals durable together: a power loss that resurrects
		// only some of a run of deleted segments would leave a sequence gap
		// that replay reports as corruption.
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
