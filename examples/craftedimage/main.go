// Crafted-image attack: a maliciously crafted filesystem image that passes
// a checksum-only look can crash a performance-oriented filesystem (§2.1:
// "a user mounts a crafted disk image and issues operations to trigger a
// null-pointer dereference ... such images can bypass FSCK"). The shadow
// side of RAE refuses to execute over an image its full structural checker
// rejects, and diagnoses exactly what was wrong.
//
//	go run ./examples/craftedimage
package main

import (
	"fmt"
	"log"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsck"
	"repro/internal/mkfs"
	"repro/internal/shadowfs"
)

func main() {
	// Build a legitimate image with some content.
	dev := blockdev.NewMem(4096)
	sb, err := mkfs.Format(dev, mkfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fs, err := basefs.Mount(dev, basefs.Options{})
	must(err)
	must(fs.Mkdir("/home", 0o755))
	fd, err := fs.Create("/home/data.bin", 0o644)
	must(err)
	_, err = fs.WriteAt(fd, 0, make([]byte, 3*disklayout.BlockSize))
	must(err)
	must(fs.Close(fd))
	must(fs.Unmount())

	// The attacker edits the image offline: where the file's first data
	// block lives is redirected at the block bitmap, and the record is
	// re-checksummed so a naive integrity check still passes.
	craft(dev, sb)
	fmt.Println("image crafted: /home/data.bin now maps a metadata block as file data")

	// The base (performance posture: no deep validation on the hot path)
	// mounts the image happily.
	fs2, err := basefs.Mount(dev, basefs.Options{})
	must(err)
	fd, err = fs2.Open("/home/data.bin")
	must(err)
	// Writing through the lie would scribble over the block bitmap; the
	// base's last-line pointer guard (the block_validity analogue) catches
	// it only at IO time, as a runtime error — under RAE this is a recovery
	// trigger, and the recovery's fsck then condemns the image.
	_, werr := fs2.WriteAt(fd, 0, []byte("overwrite the inode table"))
	fmt.Printf("base write through crafted pointer: %v\n", werr)
	fs2.Kill()

	// The shadow never gets that far: its constructor runs the full checker
	// and rejects the image with a diagnosis.
	_, serr := shadowfs.New(dev, shadowfs.Options{})
	fmt.Printf("shadow refuses the image: %v\n", serr)

	// The checker's report names every problem.
	rep := fsck.Check(dev)
	fmt.Printf("fsck found %d problems:\n", len(rep.Problems))
	for _, p := range rep.Problems {
		fmt.Println("  ", p)
	}
}

// craft redirects the first data mapping of /home/data.bin at a bitmap block
// and re-checksums the inode record. In a block-mapped inode that is the first
// direct pointer; in an extent inode, the first inline extent's Start
// (Direct[0] is that extent's FileOff).
func craft(dev *blockdev.Mem, sb *disklayout.Superblock) {
	for ino := uint32(1); ino < sb.NumInodes; ino++ {
		blk, off := sb.InodeLoc(ino)
		b, err := dev.ReadBlock(blk)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := disklayout.DecodeInode(b[off : off+disklayout.InodeSize])
		if err != nil || !rec.IsFile() {
			continue
		}
		slot := 0
		if rec.IsExtents() {
			slot = 1
		}
		if rec.Direct[slot] == 0 {
			continue
		}
		rec.Direct[slot] = sb.BlockBitmapStart // metadata block as file data
		disklayout.PutInode(b[off:], rec)      // valid checksum: "plausible" image
		if err := dev.WriteBlock(blk, b); err != nil {
			log.Fatal(err)
		}
		return
	}
	log.Fatal("no file inode found to craft")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
