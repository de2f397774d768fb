// Checkpointing compacts the write-ahead log (internal/wal): a checkpoint
// file pairs a full Snapshot with the WAL sequence it covers, and recovery
// is "load latest checkpoint, then replay the WAL tail". Checkpoints are
// incremental in the storage sense — each one lets wal.Truncate delete the
// segments it covers, so the on-disk footprint stays proportional to the
// activity since the last checkpoint, not to history.
//
// The covered sequence is read from the writer BEFORE the snapshot is
// captured. Mutations racing the capture may therefore land both in the
// snapshot and in the replayed tail; every replay operation is idempotent
// against state the snapshot already contains (see core.ApplyWALEntry), so
// the overlap is harmless. Reading the sequence after the capture would
// have the opposite, fatal property: a commit between the capture and the
// read would be neither in the snapshot nor in the replayed tail.
//
// Checkpoints make two durability promises, both kept before the covered
// WAL segments are allowed to disappear:
//
//   - UpToSeq never exceeds the WAL's durable tail: the covered sequence is
//     read with wal.Writer.SyncedSeq, so even under fsync=interval/none a
//     power loss cannot leave the log ending below what a checkpoint
//     claims. Recovery still verifies this and fails loudly (wrapping
//     wal.ErrCorrupt) if the log ends short of the checkpoint — committed
//     state is missing, and resuming would silently reuse its sequences.
//   - The checkpoint file itself is on disk — contents fsynced, rename
//     pinned by a directory fsync — before CheckpointAndTruncate deletes
//     the segments (or prior checkpoints) it supersedes, so a power loss
//     mid-compaction always leaves a recoverable pairing.
package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aire/internal/core"
	"aire/internal/wal"
)

// Checkpoint is one on-disk checkpoint: a snapshot plus the WAL sequence up
// to which the snapshot is guaranteed complete.
type Checkpoint struct {
	// Format is the format version; a checkpoint without it is version 1.
	Format uint32 `json:"format,omitempty"`
	// UpToSeq is the last WAL sequence certainly reflected in Snap; recovery
	// replays the WAL from UpToSeq+1 (tolerating overlap).
	UpToSeq uint64 `json:"up_to_seq"`
	// Snap is the full state snapshot.
	Snap *Snapshot `json:"snapshot"`
	// deliveryIDs maps a version-1 queue's MsgIDs to delivery IDs.
	deliveryIDs map[string]string
}

// checkpointFormat is the version checkpoints are written in, as WAL
// segments are.
const checkpointFormat = wal.FormatBinary

// CheckpointName returns the file name for a checkpoint covering upToSeq.
// The zero-padded sequence makes lexical order equal coverage order.
func CheckpointName(upToSeq uint64) string {
	return fmt.Sprintf("checkpoint-%020d.json", upToSeq)
}

func checkpointSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".json"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// checkpointFiles lists checkpoint files in dir, oldest first.
func checkpointFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if _, ok := checkpointSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// LatestCheckpoint loads the newest checkpoint in dir, or (nil, nil) when
// the directory holds none. It reads the format the checkpoint's "format"
// field names and refuses any other.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	names, err := checkpointFiles(dir)
	if err != nil || len(names) == 0 {
		return nil, err
	}
	path := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Format uint32 `json:"format"`
	}
	cp := &Checkpoint{}
	if err = json.Unmarshal(data, &head); err == nil {
		switch head.Format {
		case 0:
			cp, err = decodeV1Checkpoint(data)
		case checkpointFormat:
			err = decodeStrict(bytes.NewReader(data), cp)
		default:
			err = fmt.Errorf("unsupported format %d", head.Format)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("persist: decode checkpoint %s: %w", path, err)
	}
	if cp.Snap == nil {
		return nil, fmt.Errorf("persist: checkpoint %s has no snapshot", path)
	}
	return cp, nil
}

// WriteCheckpoint captures c and writes a checkpoint into dir (atomically,
// via a temporary file). w must be the WAL writer attached to c; its
// sequence is read before the capture so the checkpoint never claims to
// cover a commit the snapshot might miss, and the read forces the log
// durable up to that sequence first (SyncedSeq), so the claim also never
// exceeds what a power loss would leave on disk. The checkpoint itself is
// fsynced — contents before the rename, the directory entry after — before
// the function returns, so a caller may delete what it supersedes. Returns
// the covered sequence.
func WriteCheckpoint(c *core.Controller, w *wal.Writer, dir string) (uint64, error) {
	cpStart := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	upTo, err := w.SyncedSeq()
	if err != nil {
		return 0, err
	}
	cp := Checkpoint{Format: checkpointFormat, UpToSeq: upTo, Snap: Capture(c)}
	data, err := json.Marshal(&cp)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(dir, CheckpointName(upTo))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(data)
	if err == nil {
		// The data blocks must be on disk before the rename publishes the
		// file: rename-then-sync can survive a power loss as a durable
		// directory entry pointing at zero/garbage content.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := wal.SyncDir(dir); err != nil {
		return 0, err
	}
	observeCheckpoint(c, cpStart)
	return upTo, nil
}

// CheckpointAndTruncate writes a checkpoint and then compacts: WAL segments
// wholly covered by it are deleted (wal.Truncate never touches the active
// segment or any entry past UpToSeq), and older checkpoint files are
// removed. Returns the covered sequence.
func CheckpointAndTruncate(c *core.Controller, w *wal.Writer, dir string) (uint64, error) {
	upTo, err := WriteCheckpoint(c, w, dir)
	if err != nil {
		return 0, err
	}
	return upTo, compact(dir, upTo)
}

// compact deletes what a durable checkpoint covering upTo supersedes: the
// WAL segments it wholly covers and older checkpoint files.
func compact(dir string, upTo uint64) error {
	if _, err := wal.Truncate(dir, upTo); err != nil {
		return err
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if seq, _ := checkpointSeq(name); seq < upTo {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load rebuilds a freshly constructed controller from dir without
// modifying the directory: it loads the latest checkpoint (if any) and
// replays the WAL tail from the checkpoint's covered sequence. A torn final
// record — a commit interrupted mid-write — is tolerated (and left in
// place); any other corruption is returned loudly (the error wraps
// wal.ErrCorrupt) rather than silently dropping committed state.
// Version-1 state is read through upgrade.go. Recover is Load plus opening
// the WAL for appending; an auditor inspecting a service's directory calls
// Load alone.
func Load(c *core.Controller, dir string) error {
	_, _, err := load(c, dir)
	return err
}

// load is Load, returning the checkpoint it loaded and whether it read
// version-1 state.
func load(c *core.Controller, dir string) (*Checkpoint, bool, error) {
	cp, err := LatestCheckpoint(dir)
	if err != nil {
		return nil, false, err
	}
	var from uint64
	if cp != nil {
		if err := Apply(c, cp.Snap); err != nil {
			return nil, false, err
		}
		from = cp.UpToSeq
	}
	v1 := cp != nil && cp.Format == 1
	last, _, err := wal.Replay(dir, from, replayV1(c, cp, &v1))
	if err != nil {
		return nil, false, err
	}
	if cp != nil && last < cp.UpToSeq {
		// The checkpoint covers sequences the log no longer reaches.
		// WriteCheckpoint forces the log durable before claiming coverage,
		// so this means durably committed entries went missing; resuming
		// anyway would hand out sequences the next recovery's replay-from-
		// UpToSeq silently skips.
		return nil, false, fmt.Errorf("persist: %w: checkpoint covers wal seq %d but the log ends at %d", wal.ErrCorrupt, cp.UpToSeq, last)
	}
	if v1 {
		err = c.DropOwnTombstoneReads()
	}
	return cp, v1, err
}

// Recover rebuilds a freshly constructed controller from dir (Load), then
// opens the WAL for appending — truncating a torn final record, and
// starting a fresh segment after a version-1 one — and attaches it to the
// controller. Version-1 state is upgraded here, once: CheckpointAndTruncate
// writes what Load read as a format-2 checkpoint and deletes every segment
// before the fresh one. Otherwise Recover finishes the compaction a crash
// may have cut short after the latest checkpoint was written, the
// upgrade's included. Call before serving traffic.
func Recover(c *core.Controller, dir string, opts wal.Options) (*wal.Writer, error) {
	cp, v1, err := load(c, dir)
	if err != nil {
		return nil, err
	}
	attachWALObs(c, &opts)
	w, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	c.AttachWAL(w)
	if v1 {
		_, err = CheckpointAndTruncate(c, w, dir)
	} else if cp != nil {
		err = compact(dir, cp.UpToSeq)
	}
	if err != nil {
		c.DetachWAL()
		w.Close()
		return nil, err
	}
	return w, nil
}

// StartCheckpointer runs CheckpointAndTruncate every interval until ctx is
// cancelled, reporting failures to onErr (which may be nil). It returns a
// stop function that halts the loop and waits for any in-progress
// checkpoint to finish.
func StartCheckpointer(ctx context.Context, c *core.Controller, w *wal.Writer, dir string, interval time.Duration, onErr func(error)) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := CheckpointAndTruncate(c, w, dir); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// RecoverShards recovers a sharded service's shard controllers in
// parallel: each shard has its own checkpoint+WAL directory and its own
// log, with no cross-shard ordering, so recovery is embarrassingly
// parallel — startup cost is the slowest shard, not the sum. Recovery
// never touches a scheduler (pure replay into each controller), so the
// parallelism is safe even under deterministic scheduling: the dsched
// world is not running yet. dirs[i] is shard i's directory; on any
// shard's failure every already-opened writer is closed and the first
// error (by shard index) is returned.
func RecoverShards(shards []*core.Controller, dirs []string, opts wal.Options) ([]*wal.Writer, error) {
	if len(shards) != len(dirs) {
		return nil, fmt.Errorf("persist: %d shards, %d directories", len(shards), len(dirs))
	}
	writers := make([]*wal.Writer, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			writers[i], errs[i] = Recover(shards[i], dirs[i], opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, w := range writers {
				if w != nil {
					w.Close()
				}
			}
			return nil, fmt.Errorf("persist: recover shard %d: %w", i, err)
		}
	}
	return writers, nil
}
