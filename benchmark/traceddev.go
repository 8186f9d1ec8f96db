package main

import (
	"sync"
	"sync/atomic"

	"aru"
)

// devCounts is what a tracedDev has seen; the fields mirror
// aru.DeviceStats so the two can be compared.
type devCounts struct {
	Reads, Writes, Syncs    int64
	BytesRead, BytesWritten int64
	BusyNs                  int64 // summed duration of all calls
}

func (a devCounts) sub(b devCounts) devCounts {
	return devCounts{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Syncs: a.Syncs - b.Syncs,
		BytesRead: a.BytesRead - b.BytesRead, BytesWritten: a.BytesWritten - b.BytesWritten,
		BusyNs: a.BusyNs - b.BusyNs,
	}
}

func (a devCounts) add(b devCounts) devCounts {
	return devCounts{
		Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes, Syncs: a.Syncs + b.Syncs,
		BytesRead: a.BytesRead + b.BytesRead, BytesWritten: a.BytesWritten + b.BytesWritten,
		BusyNs: a.BusyNs + b.BusyNs,
	}
}

// tracedDev decorates an aru.Device: it counts and times every call
// that succeeds at the device boundary and records a device span under
// the op in flight. Errors and sizes pass through unchanged.
type tracedDev struct {
	inner aru.Device
	tr    *tracer
	lane  uint8

	reads, writes, syncs    atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	busyNs                  atomic.Int64

	mu       sync.Mutex
	syncHist hist
}

// sharedReader is the optional lock-free read interface the engine
// type-asserts its device for (internal/core, snapshot.go).
type sharedReader interface {
	ReadAtShared(p []byte, off int64) error
}

// tracedSharedDev is a tracedDev over a device that has the lock-free
// read path. It is a separate type so that the decorator offers
// ReadAtShared exactly when the device does: the traced engine then
// reads through the same code path as the untraced one.
type tracedSharedDev struct{ *tracedDev }

// traceDev wraps inner. The result implements ReadAtShared iff inner
// does.
func traceDev(inner aru.Device, tr *tracer, lane uint8) (aru.Device, *tracedDev) {
	d := &tracedDev{inner: inner, tr: tr, lane: lane}
	if _, ok := inner.(sharedReader); ok {
		return &tracedSharedDev{d}, d
	}
	return d, d
}

func (d *tracedDev) counts() devCounts {
	return devCounts{
		Reads: d.reads.Load(), Writes: d.writes.Load(), Syncs: d.syncs.Load(),
		BytesRead: d.bytesRead.Load(), BytesWritten: d.bytesWritten.Load(),
		BusyNs: d.busyNs.Load(),
	}
}

// end closes the device span s and returns the call's duration.
func (d *tracedDev) end(s scope) int64 {
	dur := d.tr.exitShared(s, true) - s.t0
	d.busyNs.Add(dur)
	return dur
}

func (d *tracedDev) ReadAt(p []byte, off int64) error {
	s := d.tr.enterShared(kDevRead, d.lane, true)
	err := d.inner.ReadAt(p, off)
	d.end(s)
	d.countRead(p, err)
	return err
}

func (d *tracedSharedDev) ReadAtShared(p []byte, off int64) error {
	s := d.tr.enterShared(kDevRead, d.lane, true)
	err := d.inner.(sharedReader).ReadAtShared(p, off)
	d.end(s)
	d.countRead(p, err)
	return err
}

func (d *tracedDev) countRead(p []byte, err error) {
	if err == nil {
		d.reads.Add(1)
		d.bytesRead.Add(int64(len(p)))
	}
}

func (d *tracedDev) WriteAt(p []byte, off int64) error {
	s := d.tr.enterShared(kDevWrite, d.lane, true)
	err := d.inner.WriteAt(p, off)
	d.end(s)
	if err == nil {
		d.writes.Add(1)
		d.bytesWritten.Add(int64(len(p)))
	}
	return err
}

func (d *tracedDev) Sync() error {
	s := d.tr.enterShared(kDevSync, d.lane, true)
	err := d.inner.Sync()
	dur := d.end(s)
	if err == nil {
		d.syncs.Add(1)
		d.mu.Lock()
		d.syncHist.add(dur)
		d.mu.Unlock()
	}
	return err
}

func (d *tracedDev) Size() int64 { return d.inner.Size() }
