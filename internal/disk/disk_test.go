package disk

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := NewMem(1 << 20)
	w := bytes.Repeat([]byte{0xab}, 4096)
	if err := d.WriteAt(w, 8192); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 4096)
	if err := d.ReadAt(r, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("round trip mismatch")
	}
	// Unwritten areas read as zero.
	if err := d.ReadAt(r, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, make([]byte, 4096)) {
		t.Fatal("fresh area not zero")
	}
}

func TestAlignmentAndRange(t *testing.T) {
	d := NewMem(1 << 16)
	buf := make([]byte, SectorSize)
	if err := d.ReadAt(buf, 7); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned offset: %v", err)
	}
	if err := d.ReadAt(buf[:100], 0); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned length: %v", err)
	}
	if err := d.ReadAt(buf, 1<<16); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("past end: %v", err)
	}
	if err := d.WriteAt(buf, -512); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset: %v", err)
	}
}

func TestStatsAndClock(t *testing.T) {
	d := NewSim(1<<22, HPC3010())
	buf := make([]byte, 4096)
	for i := 0; i < 4; i++ {
		if err := d.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != 4 || st.Reads != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.BytesWritten != 4*4096 || st.BytesRead != 4096 {
		t.Fatalf("bytes: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Fatalf("virtual clock did not advance")
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatalf("ResetStats did not zero")
	}
}

// TestServiceTimeModel checks the qualitative properties the benchmarks
// rely on: sequential access beats near-gap access beats random access,
// and the model is deterministic.
func TestServiceTimeModel(t *testing.T) {
	g := HPC3010()
	cap := int64(400 << 20)
	seq := g.serviceTime(8192, 8192, 4096, cap)         // head already there
	near := g.serviceTime(8192, 8192+8*1024, 4096, cap) // small forward gap
	back := g.serviceTime(8192, 0, 4096, cap)           // any backward move seeks
	far := g.serviceTime(0, cap/2, 4096, cap)           // long seek
	if !(seq < near && near < back && back < far) {
		t.Fatalf("model ordering violated: seq=%v near=%v back=%v far=%v", seq, near, back, far)
	}
	if again := g.serviceTime(0, cap/2, 4096, cap); again != far {
		t.Fatalf("model not deterministic")
	}
	// A full 0.5 MB segment write should approach the media rate.
	segTime := g.serviceTime(0, cap/2, 512*1024, cap)
	media := time.Duration(512 * 1024 * int64(time.Second) / g.TransferRate)
	if segTime < media || segTime > media+30*time.Millisecond {
		t.Fatalf("segment write %v not dominated by transfer %v", segTime, media)
	}
}

func TestCrashPlan(t *testing.T) {
	d := NewMem(1 << 20)
	d.SetFaultPlan(FaultPlan{CrashAfterWrites: 2, TornSectors: 1})
	buf := bytes.Repeat([]byte{0x11}, 2048)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(buf, 4096); err != nil {
		t.Fatal(err)
	}
	// Third write is fatal: only one sector lands.
	fatal := bytes.Repeat([]byte{0x22}, 2048)
	if err := d.WriteAt(fatal, 8192); !errors.Is(err, ErrCrashed) {
		t.Fatalf("fatal write: %v", err)
	}
	if !d.Crashed() {
		t.Fatal("not crashed")
	}
	if err := d.ReadAt(buf, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("I/O after crash: %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	// The image shows the torn write: first sector only.
	img := d.Image()
	if img[8192] != 0x22 || img[8192+SectorSize-1] != 0x22 {
		t.Fatal("first sector of torn write missing")
	}
	if img[8192+SectorSize] != 0 {
		t.Fatal("torn write wrote beyond TornSectors")
	}
	// Reopen yields a working device with the same contents.
	d2 := d.Reopen(img)
	if d2.Crashed() {
		t.Fatal("reopened device is crashed")
	}
	got := make([]byte, 2048)
	if err := d2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x11 {
		t.Fatal("contents lost across reopen")
	}
}

func TestTornSectorsVariants(t *testing.T) {
	// TornSectors < 0 drops the fatal write entirely.
	d := NewMem(1 << 20)
	d.SetFaultPlan(FaultPlan{CrashAfterWrites: 0, TornSectors: -1})
	d.SetFaultPlan(FaultPlan{CrashAfterWrites: 1, TornSectors: -1})
	_ = d.WriteAt(make([]byte, 512), 0)
	if err := d.WriteAt(bytes.Repeat([]byte{0xff}, 512), 512); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	if d.Image()[512] != 0 {
		t.Fatal("dropped write reached the medium")
	}
	// TornSectors == 0 applies the fatal write fully.
	d = NewMem(1 << 20)
	d.SetFaultPlan(FaultPlan{CrashAfterWrites: 1, TornSectors: 0})
	_ = d.WriteAt(make([]byte, 512), 0)
	if err := d.WriteAt(bytes.Repeat([]byte{0xee}, 1024), 1024); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	img := d.Image()
	if img[1024] != 0xee || img[2047] != 0xee {
		t.Fatal("full fatal write should have landed")
	}
}

func TestWriteErrorInjection(t *testing.T) {
	d := NewMem(1 << 20)
	d.SetFaultPlan(FaultPlan{WriteErrorEvery: 3})
	buf := make([]byte, 512)
	var failures int
	for i := 0; i < 9; i++ {
		if err := d.WriteAt(buf, int64(i)*512); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("got %d injected failures, want 3", failures)
	}
	if d.Crashed() {
		t.Fatal("transient errors must not crash the device")
	}
}

// TestQuickContentFidelity: random aligned writes then reads always see
// the most recent data.
func TestQuickContentFidelity(t *testing.T) {
	f := func(offsets []uint16, pattern byte) bool {
		d := NewMem(1 << 22)
		last := make(map[int64]byte)
		buf := make([]byte, 512)
		for i, o := range offsets {
			off := (int64(o) % (1 << 12)) * 512
			p := pattern + byte(i)
			for j := range buf {
				buf[j] = p
			}
			if err := d.WriteAt(buf, off); err != nil {
				return false
			}
			last[off] = p
		}
		for off, p := range last {
			if err := d.ReadAt(buf, off); err != nil {
				return false
			}
			for _, x := range buf {
				if x != p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestManualCrash(t *testing.T) {
	d := NewMem(1 << 16)
	d.Crash()
	if err := d.WriteAt(make([]byte, 512), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after manual crash: %v", err)
	}
}

// TestTornHistoryDeterministic: with TornHistory set, a crash rolls
// un-synced writes back to seeded torn prefixes — the same seed always
// yields the same image, a different seed a (generally) different one,
// and writes settled by Sync never tear.
func TestTornHistoryDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		d := NewMem(1 << 20)
		d.SetFaultPlan(FaultPlan{TornHistory: 8, TornSeed: seed})
		// Durable prelude: settled by Sync, must survive any crash.
		if err := d.WriteAt(bytes.Repeat([]byte{0xAA}, 1024), 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		// In-flight window: eligible to tear.
		for i := 0; i < 6; i++ {
			buf := bytes.Repeat([]byte{byte(0x10 + i)}, 2048)
			if err := d.WriteAt(buf, int64(4096+i*4096)); err != nil {
				t.Fatal(err)
			}
		}
		d.Crash()
		return d.Image()
	}
	a, b, c := run(7), run(7), run(8)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different torn images")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical torn images (suspicious)")
	}
	// Synced region intact in every variant.
	for _, img := range [][]byte{a, c} {
		for i := 0; i < 1024; i++ {
			if img[i] != 0xAA {
				t.Fatalf("synced write torn at byte %d", i)
			}
		}
	}
	// Every in-flight write is a clean sector prefix of either the old
	// (zero) or new contents — no mid-sector tears, no foreign bytes.
	for i := 0; i < 6; i++ {
		off := 4096 + i*4096
		want := byte(0x10 + i)
		for s := 0; s < 4; s++ {
			sec := a[off+s*SectorSize : off+(s+1)*SectorSize]
			if sec[0] != 0 && sec[0] != want {
				t.Fatalf("write %d sector %d has foreign byte %#x", i, s, sec[0])
			}
			for _, bb := range sec {
				if bb != sec[0] {
					t.Fatalf("write %d sector %d torn mid-sector", i, s)
				}
			}
		}
	}
}

// TestTornHistoryWithFatalWrite: the CrashAfterWrites path composes
// with history tearing — the fatal write obeys TornSectors while the
// preceding un-synced writes tear per the seed.
func TestTornHistoryWithFatalWrite(t *testing.T) {
	d := NewMem(1 << 20)
	d.SetFaultPlan(FaultPlan{
		CrashAfterWrites: 2, TornSectors: 1,
		TornHistory: 4, TornSeed: 42,
	})
	if err := d.WriteAt(bytes.Repeat([]byte{0x01}, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(bytes.Repeat([]byte{0x02}, 1024), 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(bytes.Repeat([]byte{0x03}, 1024), 8192); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	img := d.Image()
	// Fatal write: exactly one sector per TornSectors.
	if img[8192] != 0x03 || img[8192+SectorSize] != 0 {
		t.Fatal("fatal write did not honor TornSectors")
	}
	// History writes: whole-sector prefixes of old or new contents.
	for _, off := range []int{0, 4096} {
		for s := 0; s < 2; s++ {
			sec := img[off+s*SectorSize : off+(s+1)*SectorSize]
			for _, bb := range sec {
				if bb != sec[0] {
					t.Fatalf("history write at %d sector %d torn mid-sector", off, s)
				}
			}
		}
	}
	// Replaying with the same plan on the same ops is reproducible.
	d2 := NewMem(1 << 20)
	d2.SetFaultPlan(FaultPlan{
		CrashAfterWrites: 2, TornSectors: 1,
		TornHistory: 4, TornSeed: 42,
	})
	_ = d2.WriteAt(bytes.Repeat([]byte{0x01}, 1024), 0)
	_ = d2.WriteAt(bytes.Repeat([]byte{0x02}, 1024), 4096)
	_ = d2.WriteAt(bytes.Repeat([]byte{0x03}, 1024), 8192)
	if !bytes.Equal(img, d2.Image()) {
		t.Fatal("torn-history crash not reproducible")
	}
}

// TestFromImageAndRecycle: FromImage copies the image (no aliasing) and
// Reopen(Image()) is a power cycle — fresh uncrashed device, same
// contents.
func TestFromImageAndRecycle(t *testing.T) {
	img := make([]byte, 4096)
	img[0] = 0x7F
	d := FromImage(img, Geometry{})
	img[0] = 0 // mutating the source must not affect the device
	got := make([]byte, 512)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x7F {
		t.Fatal("FromImage aliased or lost the source image")
	}
	d.Crash()
	d2 := d.Reopen(d.Image())
	if d2.Crashed() {
		t.Fatal("recycled device still crashed")
	}
	if err := d2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x7F {
		t.Fatal("contents lost across the power cycle")
	}
}

// TestSyncDelayAndCounter: SetSyncDelay makes each Sync cost real wall
// time and the Syncs counter tracks every one — the two hooks the
// group-commit benchmarks and amortization assertions build on.
func TestSyncDelayAndCounter(t *testing.T) {
	s := NewMem(1 << 16)
	for i := 0; i < 3; i++ {
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	if got := s.Stats().Syncs; got != 3 {
		t.Fatalf("Syncs counter: got %d, want 3", got)
	}

	const delay = 20 * time.Millisecond
	s.SetSyncDelay(delay)
	t0 := time.Now()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync with delay: %v", err)
	}
	if elapsed := time.Since(t0); elapsed < delay {
		t.Errorf("Sync with %v delay returned after %v", delay, elapsed)
	}
	if got := s.Stats().Syncs; got != 4 {
		t.Errorf("Syncs counter after delayed sync: got %d, want 4", got)
	}

	// The delay is wall time only: the virtual service-time clock is
	// untouched by syncs.
	if got := s.Stats().Elapsed; got != 0 {
		t.Errorf("sync delay leaked into the virtual clock: %v", got)
	}

	s.SetSyncDelay(0)
	t0 = time.Now()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after clearing delay: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > delay {
		t.Errorf("cleared delay still sleeping: %v", elapsed)
	}
}

// ResetStats zeroes the operation counters (the virtual clock restarts
// from zero as well). Contents are unaffected.
func (s *Sim) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
	atomic.StoreInt64(&s.sharedReads, 0)
	atomic.StoreInt64(&s.sharedElapsed, 0)
	atomic.StoreInt64(&s.sharedBytes, 0)
}
