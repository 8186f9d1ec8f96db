package crashenum

import (
	"aru/internal/core"
	"aru/internal/disk"
)

// Recover power-cycles dev — preserving its current image, clearing
// any simulated-crash flag — and mounts the copy through full crash
// recovery. It replaces the Image()→Reopen()→Open boilerplate the
// crash tests used to repeat, and is deliberately free of any
// *testing dependency so commands can use it too.
func Recover(dev *disk.Sim, p core.Params) (*core.LLD, error) {
	return core.Open(dev.Recycle(), p)
}
