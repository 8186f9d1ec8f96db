package txn

import (
	"encoding/binary"
	"testing"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// TestCrashSweepConservation crashes a transfer workload after every
// possible device write. At any crash point the recovered ledger must
// be a consistent snapshot: the total is conserved and every account is
// within the range the transfers could have produced — no transaction
// is ever half-applied.
func TestCrashSweepConservation(t *testing.T) {
	layout := seg.Layout{
		BlockSize: 1024, SegBytes: 16384, NumSegs: 96,
		MaxBlocks: 4096, MaxLists: 2048,
	}
	const accounts = 4
	const perAccount = 100
	const rounds = 15

	// The workload: open the ledger durably, then transfer in a fixed
	// pattern with a durable commit every third round.
	run := func(dev *disk.Sim) []core.BlockID {
		d, err := core.Format(dev, core.Params{Layout: layout})
		if err != nil {
			return nil
		}
		m := NewManager(d)
		bs := d.BlockSize()
		ids := make([]core.BlockID, accounts)
		err = m.Run(true, func(tx *Txn) error {
			lst, err := tx.NewList()
			if err != nil {
				return err
			}
			for i := range ids {
				b, err := tx.NewBlock(lst, core.NilBlock)
				if err != nil {
					return err
				}
				ids[i] = b
				buf := make([]byte, bs)
				binary.LittleEndian.PutUint64(buf, perAccount)
				if err := tx.Write(b, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return ids
		}
		for r := 0; r < rounds; r++ {
			from, to := ids[r%accounts], ids[(r+1)%accounts]
			durable := r%3 == 2
			err := m.Run(durable, func(tx *Txn) error {
				buf := make([]byte, bs)
				if err := tx.Read(from, buf); err != nil {
					return err
				}
				fv := binary.LittleEndian.Uint64(buf)
				if err := tx.Read(to, buf); err != nil {
					return err
				}
				tv := binary.LittleEndian.Uint64(buf)
				amt := uint64(r%7 + 1)
				if fv < amt {
					return nil
				}
				binary.LittleEndian.PutUint64(buf, fv-amt)
				for i := 8; i < len(buf); i++ {
					buf[i] = 0
				}
				if err := tx.Write(from, buf); err != nil {
					return err
				}
				binary.LittleEndian.PutUint64(buf, tv+amt)
				return tx.Write(to, buf)
			})
			if err != nil {
				return ids
			}
		}
		_ = d.Close()
		return ids
	}

	clean := disk.NewMem(layout.DiskBytes())
	ids := run(clean)
	if ids == nil {
		t.Fatal("clean run failed")
	}
	total := clean.Stats().Writes

	for crash := int64(1); crash <= total; crash++ {
		dev := disk.NewMem(layout.DiskBytes())
		dev.SetFaultPlan(disk.FaultPlan{CrashAfterWrites: crash, TornSectors: int(crash % 5)})
		got := run(dev)
		if !dev.Crashed() {
			continue
		}
		d2, err := core.Open(dev.Reopen(dev.Image()), core.Params{})
		if err != nil {
			continue // crash during Format
		}
		buf := make([]byte, d2.BlockSize())
		var sum uint64
		readable := 0
		for _, b := range got {
			if b == core.NilBlock {
				continue
			}
			if err := d2.Read(0, b, buf); err != nil {
				continue
			}
			readable++
			sum += binary.LittleEndian.Uint64(buf)
		}
		if readable == 0 {
			continue // ledger never became durable
		}
		if readable != accounts {
			t.Fatalf("crash %d: only %d of %d accounts recovered — the opening transaction tore",
				crash, readable, accounts)
		}
		if sum != accounts*perAccount {
			t.Fatalf("crash %d: total %d, want %d — a transfer tore", crash, sum, accounts*perAccount)
		}
	}
}
