package main

import (
	"errors"
	"fmt"
	"io"

	"aru"
)

// fs_smallfile: the paper's Figure 5 small-file workload in wall clock,
// as a steady state instead of three phases. fsNames file names are
// spread over 16 directories and fsLive files exist at any time. Ops go
// in triples: create and write (1 KiB) the next name; open, read and
// check the file created fsLive/2 creates ago — long enough ago that
// its blocks have left the engine's 1 024-block cache; remove the file
// created fsLive creates ago. The mix is therefore the same in every
// slice of a run, however long the run is. Sync after every fsLive
// triples. An op is one file step.
const (
	fsNames    = 15000
	fsLive     = fsNames / 2
	fsDirs     = 16
	fsFileSize = 1024
	fsInodes   = 16384
)

type fsClient struct {
	fs      *aru.FS
	ctx     *opCtx // nil on an untraced run
	live    int    // files kept alive; there are twice as many names
	names   []string
	exists  []bool
	round   []uint32 // the round whose payload file f holds, 0 if its write failed
	wbuf    []byte
	rbuf    []byte
	hash    uint64
	creates int64 // successful creates, for per-file ratios
}

// timed runs fn as one file-system call of kind k.
func (c *fsClient) timed(k spanKind, fn func() error) error {
	s := c.ctx.enter(k)
	err := fn()
	c.ctx.exit(s)
	return err
}

// create makes file number n (n counts creates from 0) and writes it.
func (c *fsClient) create(n int) (int, error) {
	f, round := n%len(c.names), uint32(n/len(c.names))+1
	var file *aru.File
	err := c.timed(kFSCreate, func() (err error) {
		file, err = c.fs.Create(c.names[f])
		return err
	})
	if err != nil {
		return 0, err
	}
	c.exists[f] = true
	c.creates++
	stamp(c.wbuf, uint64(f), round)
	c.hash = (c.hash*1099511628211 ^ uint64(f)<<32 ^ uint64(round)) + uint64(c.names[f][2]) // [2]: a digit of the seed-dependent directory
	c.round[f] = 0
	if err := c.timed(kFSWrite, func() error {
		_, err := file.WriteAt(c.wbuf, 0)
		return err
	}); err != nil {
		return 0, err
	}
	c.round[f] = round
	return fsFileSize, nil
}

func (c *fsClient) op(i int) (int, error) {
	n := c.live + i/3 // set-up made creates 0..live-1
	switch i % 3 {
	case 0:
		return c.create(n)
	case 1: // open + read + verify
		f := (n - c.live/2) % len(c.names)
		var got int
		err := c.timed(kFSOpenRead, func() error {
			file, err := c.fs.Open(c.names[f])
			if err != nil {
				return err
			}
			if got, err = file.ReadAt(c.rbuf, 0); err == io.EOF {
				err = nil
			}
			return err
		})
		if err != nil {
			if !c.exists[f] {
				return 0, err // its create failed and was counted then
			}
			return 0, violation("reading %s: %v", c.names[f], err)
		}
		return 0, c.check(f, c.rbuf[:got])
	default: // remove
		f := (n - c.live) % len(c.names)
		if err := c.timed(kFSRemove, func() error { return c.fs.Remove(c.names[f]) }); err != nil {
			return 0, err
		}
		c.exists[f] = false
		if (n+1)%c.live == 0 {
			return 0, c.timed(kFSSync, c.fs.Sync)
		}
		return 0, nil
	}
}

// check verifies that data is what the last successful write of file f
// left there.
func (c *fsClient) check(f int, data []byte) error {
	if c.round[f] == 0 {
		return nil // its write failed and was counted then
	}
	if len(data) != fsFileSize {
		return violation("%s: %d bytes, want %d", c.names[f], len(data), fsFileSize)
	}
	id, ver, ok := readStamp(data)
	if !ok || id != uint64(f) || ver != c.round[f] {
		return violation("%s: payload of file %d round %d, want file %d round %d", c.names[f], id, ver, f, c.round[f])
	}
	return nil
}

func setupFSSmallFile(e *env) (*instance, error) {
	d, err := formatDisk(e, 256, 0)
	if err != nil {
		return nil, err
	}
	fs, err := aru.MkFS(d, aru.FSConfig{NumInodes: fsInodes, Policy: aru.DeleteListFirst})
	if err != nil {
		return nil, fmt.Errorf("MkFS: %w", err)
	}
	for dir := 0; dir < fsDirs; dir++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%02d", dir)); err != nil {
			return nil, fmt.Errorf("Mkdir: %w", err)
		}
	}
	// A scaled-down run keeps a scaled-down population, so that it still
	// turns the whole population over.
	live := fsLive
	if e.cfg.seconds == 0 {
		live = e.scaled(fsLive, fsDirs)
	}
	c := &fsClient{fs: fs, live: live,
		names: make([]string, 2*live), exists: make([]bool, 2*live), round: make([]uint32, 2*live),
		wbuf: make([]byte, fsFileSize), rbuf: make([]byte, 2*fsFileSize)}
	for f := range c.names {
		// The seed picks the directory order, so different seeds lay the
		// same population out differently.
		c.names[f] = fmt.Sprintf("/d%02d/f%05d", (f+int(e.cfg.seed))%fsDirs, f)
	}
	for n := 0; n < live; n++ {
		if _, err := c.create(n); err != nil {
			return nil, fmt.Errorf("creating %s: %w", c.names[n], err)
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, fmt.Errorf("Sync: %w", err)
	}
	c.ctx, c.creates = e.ctx(0), 0
	stats0 := d.Stats()
	return &instance{
		clients: []opFunc{c.op},
		close:   func() { _ = d.Close() },
		stats:   d.Stats,
		hash:    func() uint64 { return c.hash },
		verify: func() error {
			if err := fs.Sync(); err != nil {
				return violation("final Sync: %v", err)
			}
			for f, name := range c.names {
				file, err := fs.Open(name)
				switch {
				case c.exists[f] && err != nil:
					return violation("%s: %v", name, err)
				case !c.exists[f] && !errors.Is(err, aru.ErrNotExist):
					return violation("%s was removed but Open says %v", name, err)
				case err == nil:
					n, err := file.ReadAt(c.rbuf, 0)
					if err != nil && err != io.EOF {
						return violation("%s: %v", name, err)
					}
					if err := c.check(f, c.rbuf[:n]); err != nil {
						return err
					}
				}
			}
			if _, err := fs.Fsck(); err != nil {
				return violation("Fsck: %v", err)
			}
			if err := d.VerifyInternal(); err != nil {
				return violation("VerifyInternal: %v", err)
			}
			return nil
		},
		layers: func(in layerInput, out metricSet) {
			tr := in.e.tr
			for _, m := range []struct {
				name string
				k    spanKind
			}{
				{"minixfs.create_us", kFSCreate}, {"minixfs.write_us", kFSWrite},
				{"minixfs.open_read_us", kFSOpenRead}, {"minixfs.remove_us", kFSRemove},
				{"minixfs.sync_us", kFSSync},
			} {
				v, ok := tr.meanUs(m.k)
				out.setIf(m.name, v, ok)
			}
			// Per-file ratios run from the end of set-up: every file made
			// since is also read once and removed once, give or take the
			// fsLive still in flight.
			st := statsDelta(stats0, in.m.stats1)
			if c.creates > 0 {
				files := float64(c.creates)
				ldOps := st.Reads + st.Writes + st.NewBlocks + st.DeleteBlocks + st.NewLists + st.DeleteLists
				out.set("minixfs.ld_ops_per_file", float64(ldOps)/files)
				out.set("minixfs.arus_per_file", float64(st.ARUsBegun)/files)
			}
			out.set("minixfs.pred_search_steps_per_op", float64(in.stats.PredecessorSearchSteps)/in.ops)
		},
	}, nil
}
