package main

import "aru"

// tracedLD puts a call-site timer and a span around each LD call one
// client makes. Each client has its own, so a span knows which op it
// belongs to without looking at goroutines.
type tracedLD struct {
	inner ldOps
	ctx   *opCtx
}

func (l *tracedLD) BeginARU() (aru.ARUID, error) {
	s := l.ctx.enter(kBegin)
	a, err := l.inner.BeginARU()
	l.ctx.exit(s)
	return a, err
}

func (l *tracedLD) EndARU(a aru.ARUID) error {
	s := l.ctx.enter(kEnd)
	err := l.inner.EndARU(a)
	l.ctx.exit(s)
	return err
}

func (l *tracedLD) CommitDurable(a aru.ARUID) error {
	s := l.ctx.enter(kCommitDurable)
	err := l.inner.CommitDurable(a)
	l.ctx.exit(s)
	return err
}

func (l *tracedLD) AbortARU(a aru.ARUID) error {
	s := l.ctx.enter(kAbort)
	err := l.inner.AbortARU(a)
	l.ctx.exit(s)
	return err
}

func (l *tracedLD) Read(a aru.ARUID, b aru.BlockID, dst []byte) error {
	s := l.ctx.enter(kRead)
	err := l.inner.Read(a, b, dst)
	l.ctx.exit(s)
	return err
}

func (l *tracedLD) Write(a aru.ARUID, b aru.BlockID, data []byte) error {
	s := l.ctx.enter(kWrite)
	err := l.inner.Write(a, b, data)
	l.ctx.exit(s)
	return err
}

func (l *tracedLD) NewBlock(a aru.ARUID, lst aru.ListID, pred aru.BlockID) (aru.BlockID, error) {
	s := l.ctx.enter(kNewBlock)
	b, err := l.inner.NewBlock(a, lst, pred)
	l.ctx.exit(s)
	return b, err
}

func (l *tracedLD) DeleteBlock(a aru.ARUID, b aru.BlockID) error {
	s := l.ctx.enter(kDelete)
	err := l.inner.DeleteBlock(a, b)
	l.ctx.exit(s)
	return err
}

func (l *tracedLD) Flush() error {
	s := l.ctx.enter(kFlush)
	err := l.inner.Flush()
	l.ctx.exit(s)
	return err
}

// ListBlocks passes through untimed; only the end-of-run check calls it.
func (l *tracedLD) ListBlocks(a aru.ARUID, lst aru.ListID) ([]aru.BlockID, error) {
	return l.inner.ListBlocks(a, lst)
}
