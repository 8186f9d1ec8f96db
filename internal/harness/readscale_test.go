package harness

import "testing"

// TestMatchReadPath pins the frame classifier: read-path entry points
// and snapshot machinery match, the write/commit path does not.
func TestMatchReadPath(t *testing.T) {
	hits := []string{
		"aru/internal/core.(*LLD).Read",
		"aru/internal/core.(*LLD).ListBlocks",
		"aru/internal/core.(*LLD).Stats",
		"aru/internal/core.(*LLD).acquireSnap",
		"aru/internal/core.(*LLD).AcquireSnapshot",
		"aru/internal/core.(*Snapshot).Read",
		"aru/internal/core.(*Snapshot).ListBlocks",
	}
	for _, fn := range hits {
		if !matchReadPath(fn) {
			t.Errorf("%s not classified as read path", fn)
		}
	}
	misses := []string{
		"aru/internal/core.(*LLD).EndARU",
		"aru/internal/core.(*LLD).Write",
		"aru/internal/core.(*LLD).Flush",
		"aru/internal/core.(*LLD).publishLocked",
		"aru/internal/disk.(*Mem).ReadAt",
		"aru/internal/harness.RunReadScale",
	}
	for _, fn := range misses {
		if matchReadPath(fn) {
			t.Errorf("%s wrongly classified as read path", fn)
		}
	}
}
