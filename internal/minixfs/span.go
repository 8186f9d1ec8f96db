package minixfs

import "aru/internal/obs"

// traceOp starts the fs-op span of one public file-system operation.
// The caller defers its End with the operation code, so the span
// encloses every ARU the operation issues, with no closure:
//
//	defer fs.traceOp().End(0, uint64(obs.FSOpCreate), 0)
//
// With no tracer attached, or the ring off, it costs a nil-check.
func (fs *FS) traceOp() obs.Active {
	return fs.ld.Tracer().Start(obs.SpanFSOp, obs.SpanContext{})
}
