package crashenum

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"aru/internal/core"
	"aru/internal/minixfs"
)

// fsSnap is a canonical snapshot of the file system after one
// workload operation. Structure (which paths exist, and whether each
// is a file or directory) is kept separate from per-file content:
// namespace operations are each one ARU and recover atomically, but
// minixfs file writes are simple operations, so a crash image may
// expose a partially applied WriteAt. The oracle is therefore strict
// about structure and only enforces content for durable, untouched
// files.
type fsSnap struct {
	structure string            // sorted "D <path>" / "F <path>" lines
	content   map[string]string // file path -> "size:hash"
}

// fsFacts is what the file-system workload recorded: the canonical
// state snapshot taken after every operation, and the durable floors
// observed at each sync.
type fsFacts struct {
	snaps []fsSnap // state after op i (snaps[0] = initial)
	// floors maps sync events to (epoch after the sync, snapshot index
	// guaranteed durable from that epoch on).
	floors []fsFloor
}

type fsFloor struct {
	epoch   uint64
	snapIdx int
}

// walkFS renders the whole file system into a canonical snapshot.
func walkFS(fs *minixfs.FS) (fsSnap, error) {
	snap := fsSnap{content: make(map[string]string)}
	var lines []string
	var walk func(path string) error
	walk = func(path string) error {
		ents, err := fs.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			child := path + "/" + e.Name
			if path == "/" {
				child = "/" + e.Name
			}
			st, err := fs.Stat(child)
			if err != nil {
				return err
			}
			if st.Mode == minixfs.ModeDir {
				lines = append(lines, "D "+child)
				if err := walk(child); err != nil {
					return err
				}
				continue
			}
			lines = append(lines, "F "+child)
			f, err := fs.Open(child)
			if err != nil {
				return err
			}
			data, err := f.ReadAll()
			if err != nil {
				return err
			}
			h := sha256.Sum256(data)
			snap.content[child] = fmt.Sprintf("%d:%x", len(data), h[:8])
		}
		return nil
	}
	if err := walk("/"); err != nil {
		return fsSnap{}, err
	}
	sort.Strings(lines)
	snap.structure = strings.Join(lines, "\n")
	return snap, nil
}

// runFS executes a seeded file-system workload (creates, writes,
// truncates, renames, removals, mkdirs, syncs) on minixfs over the
// recording disk, and captures the canonical FS state after each
// operation.
func runFS(seed int64, o Options) (*execution, error) {
	e, err := formatEngine(o.Inject, nil)
	if err != nil {
		return nil, err
	}
	d, now := e.d, e.now
	fs, err := minixfs.Mkfs(d, minixfs.Config{NumInodes: 64})
	if err != nil {
		return nil, fmt.Errorf("crashenum: mkfs: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	if err := d.Checkpoint(); err != nil {
		return nil, err
	}

	start := now()
	res := &fsFacts{}
	snap := func() error {
		s, err := walkFS(fs)
		if err != nil {
			return fmt.Errorf("crashenum: fs snapshot: %w", err)
		}
		res.snaps = append(res.snaps, s)
		return nil
	}
	if err := snap(); err != nil {
		return nil, err
	}
	res.floors = []fsFloor{{epoch: start, snapIdx: 0}}

	rng := rand.New(rand.NewSource(seed ^ 0x51c0ffee))
	var files, dirs []string
	dirs = append(dirs, "")
	nameSeq := 0
	newName := func(dir string) string {
		nameSeq++
		return fmt.Sprintf("%s/f%02d", dir, nameSeq)
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Intn(256))
		}
		return p
	}
	const ops = 36
	for i := 0; i < ops; i++ {
		var err error
		switch k := rng.Intn(10); {
		case k < 3: // create a file with some content
			name := newName(dirs[rng.Intn(len(dirs))])
			var f *minixfs.File
			if f, err = fs.Create(name); err == nil {
				_, err = f.WriteAt(payload(200+rng.Intn(1800)), 0)
				files = append(files, name)
			}
		case k < 5 && len(files) > 0: // overwrite or extend
			f, oerr := fs.Open(files[rng.Intn(len(files))])
			if oerr == nil {
				_, err = f.WriteAt(payload(100+rng.Intn(900)), int64(rng.Intn(1500)))
			} else {
				err = oerr
			}
		case k < 6 && len(files) > 0: // truncate
			f, oerr := fs.Open(files[rng.Intn(len(files))])
			if oerr == nil {
				err = f.Truncate(uint64(rng.Intn(800)))
			} else {
				err = oerr
			}
		case k < 7 && len(files) > 0: // remove
			j := rng.Intn(len(files))
			err = fs.Remove(files[j])
			files = append(files[:j], files[j+1:]...)
		case k < 8 && len(dirs) < 4: // mkdir
			nameSeq++
			dir := fmt.Sprintf("%s/d%02d", dirs[rng.Intn(len(dirs))], nameSeq)
			if err = fs.Mkdir(dir); err == nil {
				dirs = append(dirs, dir)
			}
		case k < 9 && len(files) > 0: // rename
			j := rng.Intn(len(files))
			to := newName(dirs[rng.Intn(len(dirs))])
			if err = fs.Rename(files[j], to); err == nil {
				files[j] = to
			}
		default: // sync: everything so far becomes durable
			if err = fs.Sync(); err == nil {
				res.floors = append(res.floors, fsFloor{epoch: now(), snapIdx: len(res.snaps) - 1})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("crashenum: fs op %d: %w", i, err)
		}
		if err := snap(); err != nil {
			return nil, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	res.floors = append(res.floors, fsFloor{epoch: now(), snapIdx: len(res.snaps) - 1})
	return e.execution("fs", start, res.judge), nil
}

// judge checks the tree recovered from a crash in epoch at:
//
//   - mount and fsck must succeed;
//   - the recovered tree STRUCTURE must be exactly one of the states
//     the workload passed through (every namespace operation is one
//     ARU, so no in-between structure can exist), and at least as new
//     as the last completed sync;
//   - any file whose content never changed from the durable floor to
//     the end of the run must be recovered with exactly that content
//     (file writes after the floor are simple operations and may
//     legitimately be partially applied).
func (res *fsFacts) judge(d recovered, at uint64, viols *[]string) {
	// minixfs mounts on the engine itself, not on the operation set.
	fs, err := minixfs.Mount(d.recoveredDisk.(*core.LLD), minixfs.DeleteBlocksFirst)
	if err != nil {
		addf(viols, "mount failed: %v", err)
		return
	}
	if _, err := fs.Fsck(); err != nil {
		addf(viols, "fsck: %v", err)
	}
	got, err := walkFS(fs)
	if err != nil {
		addf(viols, "walking recovered tree: %v", err)
		return
	}
	floor := 0
	for _, f := range res.floors {
		if f.epoch <= at && f.snapIdx > floor {
			floor = f.snapIdx
		}
	}
	// Match structure against the per-op snapshots. States can repeat
	// (a no-op leaves the tree unchanged), so search from the end and
	// accept any index ≥ floor.
	match := -1
	for i := len(res.snaps) - 1; i >= 0; i-- {
		if res.snaps[i].structure == got.structure {
			match = i
			break
		}
	}
	switch {
	case match < 0:
		addf(viols, "recovered tree structure matches no state the workload passed through")
	case match < floor:
		addf(viols, "recovered tree regressed to state %d, but state %d was durable before crash epoch %d",
			match, floor, at)
	}
	// Durable-content check: a file untouched from the floor snapshot
	// to the end of the run has no in-flight writes, so its synced
	// content must survive recovery byte for byte.
	for path, want := range res.snaps[floor].content {
		stable := true
		for i := floor + 1; i < len(res.snaps); i++ {
			if c, ok := res.snaps[i].content[path]; !ok || c != want {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		if got.content[path] != want {
			addf(viols, "file %s: durable content %s lost after crash epoch %d (recovered %q)",
				path, want, at, got.content[path])
		}
	}
}
