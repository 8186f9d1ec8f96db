package aru_test

import (
	"bytes"
	"fmt"
	"log"

	"aru"
)

// Example shows the core ARU contract: several operations commit as one
// unit; a crash before the unit is flushed rolls all of it back.
func Example() {
	layout := aru.DefaultLayout(16)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, err := aru.Format(dev, aru.Params{Layout: layout})
	if err != nil {
		log.Fatal(err)
	}

	lst, _ := d.NewList(aru.Simple)
	payload := make([]byte, d.BlockSize())

	a, _ := d.BeginARU()
	b1, _ := d.NewBlock(a, lst, aru.NilBlock)
	copy(payload, "meta-data update one")
	_ = d.Write(a, b1, payload)
	b2, _ := d.NewBlock(a, lst, b1)
	copy(payload, "meta-data update two")
	_ = d.Write(a, b2, payload)
	_ = d.EndARU(a) // atomic…
	_ = d.Flush()   // …and durable

	blocks, _ := d.ListBlocks(aru.Simple, lst)
	fmt.Println("blocks on the list:", len(blocks))
	// Output:
	// blocks on the list: 2
}

// ExampleDisk_BeginARU demonstrates isolation: the shadow state of an
// open ARU is invisible to other clients until commit.
func ExampleDisk_BeginARU() {
	layout := aru.DefaultLayout(16)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, _ := aru.Format(dev, aru.Params{Layout: layout})
	lst, _ := d.NewList(aru.Simple)

	a, _ := d.BeginARU()
	_, _ = d.NewBlock(a, lst, aru.NilBlock)

	committed, _ := d.ListBlocks(aru.Simple, lst)
	own, _ := d.ListBlocks(a, lst)
	fmt.Printf("committed view: %d blocks, ARU's own view: %d blocks\n", len(committed), len(own))
	_ = d.EndARU(a)
	committed, _ = d.ListBlocks(aru.Simple, lst)
	fmt.Printf("after commit: %d blocks\n", len(committed))
	// Output:
	// committed view: 0 blocks, ARU's own view: 1 blocks
	// after commit: 1 blocks
}

// ExampleDisk_AbortARU demonstrates the §3.3 abort semantics:
// operations vanish, but identifiers allocated in the committed state
// remain until the consistency sweep frees them.
func ExampleDisk_AbortARU() {
	layout := aru.DefaultLayout(16)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, _ := aru.Format(dev, aru.Params{Layout: layout})
	lst, _ := d.NewList(aru.Simple)

	a, _ := d.BeginARU()
	_, _ = d.NewBlock(a, lst, aru.NilBlock)
	_ = d.AbortARU(a)

	blocks, _ := d.ListBlocks(aru.Simple, lst)
	freed, _ := d.CheckDisk()
	fmt.Printf("visible blocks: %d, leaked allocations swept: %d\n", len(blocks), freed)
	// Output:
	// visible blocks: 0, leaked allocations swept: 1
}

// ExampleOpenReport shows crash recovery through the public API.
func ExampleOpenReport() {
	layout := aru.DefaultLayout(16)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, _ := aru.Format(dev, aru.Params{Layout: layout})
	lst, _ := d.NewList(aru.Simple)

	// A durable unit, then an uncommitted one, then power loss.
	a, _ := d.BeginARU()
	_, _ = d.NewBlock(a, lst, aru.NilBlock)
	_ = d.EndARU(a)
	_ = d.Flush()
	a2, _ := d.BeginARU()
	_, _ = d.NewBlock(a2, lst, aru.NilBlock) // never committed
	_ = d.Flush()                            // the allocation reaches disk; the unit does not

	d2, rpt, err := aru.OpenReport(dev.Reopen(dev.Image()), aru.Params{})
	if err != nil {
		log.Fatal(err)
	}
	blocks, _ := d2.ListBlocks(aru.Simple, lst)
	fmt.Printf("recovered blocks: %d, ARUs recovered: %d, leaked freed: %d\n",
		len(blocks), rpt.ARUsRecovered, rpt.LeakedFreed)
	// Output:
	// recovered blocks: 1, ARUs recovered: 1, leaked freed: 1
}

// ExampleTxnManager shows the transaction layer: isolation and
// durability on top of an ARU.
func ExampleTxnManager() {
	layout := aru.DefaultLayout(16)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, _ := aru.Format(dev, aru.Params{Layout: layout})
	m := aru.NewTxnManager(d)

	var acct aru.BlockID
	err := m.Run(true /* durable */, func(tx *aru.Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		acct, err = tx.NewBlock(lst, aru.NilBlock)
		if err != nil {
			return err
		}
		buf := make([]byte, d.BlockSize())
		buf[0] = 42
		return tx.Write(acct, buf)
	})
	if err != nil {
		log.Fatal(err)
	}

	buf := make([]byte, d.BlockSize())
	_ = d.Read(aru.Simple, acct, buf)
	fmt.Println("balance:", buf[0])
	// Output:
	// balance: 42
}

// ExampleMkFS shows the Minix-style file system client.
func ExampleMkFS() {
	layout := aru.DefaultLayout(16)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, _ := aru.Format(dev, aru.Params{Layout: layout})
	fs, err := aru.MkFS(d, aru.FSConfig{NumInodes: 64})
	if err != nil {
		log.Fatal(err)
	}
	_ = fs.Mkdir("/docs")
	f, _ := fs.Create("/docs/note")
	_, _ = f.WriteAt([]byte("created atomically"), 0)
	body, _ := f.ReadAll()
	fmt.Printf("%s\n", body)
	// Output:
	// created atomically
}

// ExampleReadSemantics runs one interleaving under each of the three
// Read visibilities of paper §3.3. The library implements all three;
// the paper's prototype implements option 3.
func ExampleReadSemantics() {
	for _, opt := range []struct {
		sem  aru.ReadSemantics
		desc string
	}{
		{aru.ReadAnyShadow, "option 1: any update is visible to all clients right away"},
		{aru.ReadCommitted, "option 2: updates become visible only at commit"},
		{aru.ReadOwnShadow, "option 3 (the paper's prototype): shadow state is local to its ARU"},
	} {
		layout := aru.DefaultLayout(16)
		dev := aru.NewMemDevice(layout.DiskBytes())
		d, err := aru.Format(dev, aru.Params{Layout: layout, ReadSemantics: opt.sem})
		if err != nil {
			log.Fatal(err)
		}
		lst, _ := d.NewList(aru.Simple)
		b, _ := d.NewBlock(aru.Simple, lst, aru.NilBlock)
		buf := make([]byte, d.BlockSize())
		write := func(who aru.ARUID, v byte) {
			buf[0] = v
			if err := d.Write(who, b, buf); err != nil {
				log.Fatal(err)
			}
		}
		read := func(who aru.ARUID) byte {
			if err := d.Read(who, b, buf); err != nil {
				log.Fatal(err)
			}
			return buf[0]
		}

		write(aru.Simple, 1) // committed version = 1
		a1, _ := d.BeginARU()
		a2, _ := d.BeginARU()
		write(a1, 2) // shadow of ARU 1
		write(a2, 3) // shadow of ARU 2 (most recent overall)

		fmt.Printf("%s (%v)\n", opt.desc, opt.sem)
		fmt.Printf("  committed=1, ARU1 wrote 2, ARU2 wrote 3\n")
		fmt.Printf("  simple client reads %d   ARU1 reads %d   ARU2 reads %d\n",
			read(aru.Simple), read(a1), read(a2))
		if err := d.EndARU(a1); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  after ARU1 commits:       simple client reads %d\n\n", read(aru.Simple))
	}
	// Output:
	// option 1: any update is visible to all clients right away (any-shadow)
	//   committed=1, ARU1 wrote 2, ARU2 wrote 3
	//   simple client reads 3   ARU1 reads 3   ARU2 reads 3
	//   after ARU1 commits:       simple client reads 2
	//
	// option 2: updates become visible only at commit (committed)
	//   committed=1, ARU1 wrote 2, ARU2 wrote 3
	//   simple client reads 1   ARU1 reads 1   ARU2 reads 1
	//   after ARU1 commits:       simple client reads 2
	//
	// option 3 (the paper's prototype): shadow state is local to its ARU (own-shadow)
	//   committed=1, ARU1 wrote 2, ARU2 wrote 3
	//   simple client reads 1   ARU1 reads 2   ARU2 reads 3
	//   after ARU1 commits:       simple client reads 2
}

// ExampleInterface is a durable two-key store written against
// aru.Interface, so the same code runs on a local Disk or on a client
// from Dial. A transfer updates both keys in one ARU: a crash before
// Flush loses it whole, and a crash after CommitDurable keeps it whole.
func ExampleInterface() {
	layout := aru.DefaultLayout(16)
	dev := aru.NewMemDevice(layout.DiskBytes())
	var d aru.Interface
	d, err := aru.Format(dev, aru.Params{Layout: layout})
	if err != nil {
		log.Fatal(err)
	}
	lst, _ := d.NewList(aru.Simple)
	keys := map[string]aru.BlockID{}
	// apply puts the key/value pairs in one ARU. A key's first put
	// allocates its block.
	apply := func(durable bool, kv ...string) {
		a, _ := d.BeginARU()
		for i := 0; i < len(kv); i += 2 {
			b, ok := keys[kv[i]]
			if !ok {
				b, _ = d.NewBlock(a, lst, aru.NilBlock)
				keys[kv[i]] = b
			}
			buf := make([]byte, d.BlockSize())
			copy(buf, kv[i+1])
			_ = d.Write(a, b, buf)
		}
		commit := d.EndARU
		if durable {
			commit = d.CommitDurable
		}
		if err := commit(a); err != nil {
			log.Fatal(err)
		}
	}
	get := func(key string) string {
		buf := make([]byte, d.BlockSize())
		_ = d.Read(aru.Simple, keys[key], buf)
		return string(bytes.TrimRight(buf, "\x00"))
	}
	crash := func() {
		dev = dev.Reopen(dev.Image())
		if d, err = aru.Open(dev, aru.Params{}); err != nil {
			log.Fatal(err)
		}
	}

	apply(true, "alice", "100", "bob", "0")
	fmt.Println("initial balances: alice=100 bob=0 (durable)")
	apply(false, "alice", "60", "bob", "40")
	fmt.Println("transfer committed in memory; power fails before flush")
	crash()
	fmt.Printf("after recovery: alice=%s bob=%s (the transfer vanished whole)\n", get("alice"), get("bob"))
	apply(true, "alice", "60", "bob", "40")
	crash()
	fmt.Printf("after a durable transfer and a crash: alice=%s bob=%s (both moved)\n", get("alice"), get("bob"))
	// Output:
	// initial balances: alice=100 bob=0 (durable)
	// transfer committed in memory; power fails before flush
	// after recovery: alice=100 bob=0 (the transfer vanished whole)
	// after a durable transfer and a crash: alice=60 bob=40 (both moved)
}

// ExampleMountFS shows why the file system on an LLD needs no repair
// pass (paper §5.1): power fails in the middle of a burst of synced
// creates, and after recovery each generated file is whole or absent
// and Fsck finds the tree consistent.
func ExampleMountFS() {
	layout := aru.DefaultLayout(64)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, _ := aru.Format(dev, aru.Params{Layout: layout})
	fs, err := aru.MkFS(d, aru.FSConfig{NumInodes: 256})
	if err != nil {
		log.Fatal(err)
	}
	_ = fs.Mkdir("/src")
	_ = fs.Sync()

	// Power fails a few device writes into the burst; the fatal write
	// reaches the medium only as a torn three-sector prefix.
	dev.SetFaultPlan(aru.FaultPlan{CrashAfterWrites: dev.Stats().Writes + 4, TornSectors: 3})
	generated := 0
	for err == nil {
		var f *aru.File
		f, err = fs.Create(fmt.Sprintf("/src/gen_%03d", generated))
		if err == nil {
			_, err = f.WriteAt([]byte("generated"), 0)
		}
		if err == nil {
			err = fs.Sync()
		}
		generated++
	}

	d2, _, err := aru.OpenReport(dev.Reopen(dev.Image()), aru.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fs2, err := aru.MountFS(d2, aru.DeleteBlocksFirst)
	if err != nil {
		log.Fatal(err)
	}
	ents, _ := fs2.ReadDir("/src")
	for _, e := range ents {
		f, _ := fs2.Open("/src/" + e.Name)
		if body, _ := f.ReadAll(); string(body) != "generated" {
			log.Fatalf("%s recovered torn: %q", e.Name, body)
		}
	}
	chk, err := fs2.Fsck()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated files: %d, recovered whole: %d\n", generated, len(ents))
	fmt.Printf("fsck: clean, %d files, %d dirs\n", chk.FilesFound, chk.DirsFound)
	// Output:
	// generated files: 5, recovered whole: 4
	// fsck: clean, 4 files, 2 dirs
}
