package main

import (
	"bytes"
	"errors"
	"testing"

	"aru"
)

// plainDev is a device without the lock-free read path whose every
// call fails with its own sentinel.
type plainDev struct{ readErr, writeErr, syncErr error }

func (d plainDev) ReadAt(p []byte, off int64) error  { return d.readErr }
func (d plainDev) WriteAt(p []byte, off int64) error { return d.writeErr }
func (d plainDev) Sync() error                       { return d.syncErr }
func (d plainDev) Size() int64                       { return 12345 * 512 }

func TestTracedDevKeepsTheDeviceSurface(t *testing.T) {
	tr := newTracer(layerCore, true)

	sim := aru.NewMemDevice(1 << 20)
	dev, _ := traceDev(sim, tr, 100)
	sh, ok := dev.(sharedReader)
	if !ok {
		t.Fatal("decorator over a SimDevice lost ReadAtShared: the traced engine would read through a different code path")
	}
	if dev.Size() != sim.Size() {
		t.Fatalf("Size = %d, want %d", dev.Size(), sim.Size())
	}
	want := bytes.Repeat([]byte{0xa5}, 4096)
	if err := dev.WriteAt(want, 8192); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := sh.ReadAtShared(got, 8192); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAtShared through the decorator: err=%v, data equal=%v", err, bytes.Equal(got, want))
	}

	plain := plainDev{errors.New("read"), errors.New("write"), errors.New("sync")}
	dev, td := traceDev(plain, tr, 101)
	if _, ok := dev.(sharedReader); ok {
		t.Fatal("decorator offers ReadAtShared over a device that has none")
	}
	if dev.Size() != plain.Size() {
		t.Fatalf("Size = %d, want %d", dev.Size(), plain.Size())
	}
	if err := dev.ReadAt(got, 0); err != plain.readErr {
		t.Errorf("ReadAt error %v, want the device's own", err)
	}
	if err := dev.WriteAt(got, 0); err != plain.writeErr {
		t.Errorf("WriteAt error %v, want the device's own", err)
	}
	if err := dev.Sync(); err != plain.syncErr {
		t.Errorf("Sync error %v, want the device's own", err)
	}
	if c := td.counts(); c.Reads+c.Writes+c.Syncs != 0 {
		t.Errorf("failed calls were counted: %+v", c)
	}
}

func TestTracedDevCountsLikeTheDevice(t *testing.T) {
	sim := aru.NewMemDevice(1 << 20)
	dev, td := traceDev(sim, newTracer(layerCore, true), 100)
	buf := make([]byte, 8192)
	// A scripted run with failures mixed in: neither side counts those.
	for i := 0; i < 50; i++ {
		off := int64(i%20) * 4096
		switch i % 5 {
		case 0, 1:
			if err := dev.WriteAt(buf[:4096*(1+i%2)], off); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := dev.ReadAt(buf[:512], off); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := dev.(sharedReader).ReadAtShared(buf, off); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := dev.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := dev.WriteAt(buf, 1<<20); err == nil { // out of range
				t.Fatal("write past the end succeeded")
			}
			if err := dev.ReadAt(buf[:100], 0); err == nil { // unaligned
				t.Fatal("unaligned read succeeded")
			}
		}
	}
	got, want := td.counts(), sim.Stats()
	if got.Writes != want.Writes || got.BytesWritten != want.BytesWritten || got.Syncs != want.Syncs ||
		got.Reads != want.Reads || got.BytesRead != want.BytesRead {
		t.Fatalf("decorator counted %+v, device counted %+v", got, want)
	}
	if got.Writes == 0 || got.Syncs == 0 || got.Reads == 0 {
		t.Fatalf("script did not exercise every counter: %+v", got)
	}
}
