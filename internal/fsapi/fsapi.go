// Package fsapi defines the filesystem API shared by the base filesystem,
// the shadow filesystem, and the executable specification model.
//
// The paper requires the shadow to adhere to "the same API ... as the base
// filesystem it enhances" (§Abstract) and requires that, for a given
// operation sequence, "the output at the API level ... must be equivalent
// between the base and the shadow" (§3.3). Centralizing the interface, the
// path normalizer, and the stat/dirent types here is what makes equivalence
// well-defined and mechanically checkable by the differential tester.
//
// API semantics (identical across all three implementations):
//
//   - Paths are absolute, '/'-separated. "." components are skipped and ".."
//     is resolved lexically (no symlink following during lookup; opening a
//     symlink returns ErrInvalid — symlinks are created and read with
//     Symlink/Readlink only).
//   - Create is exclusive: it fails with ErrExist if the name exists.
//   - File descriptors are allocated lowest-free-first (POSIX), and inode
//     numbers lowest-free-first, so independent implementations given the
//     same operation sequence produce identical application-visible numbers.
//   - Reads of holes return zeros; reads do not update atime (noatime).
//   - Timestamps come from a deterministic logical clock that ticks once per
//     state-changing operation.
package fsapi

import "repro/internal/fserr"

// FD is an application-visible file descriptor number.
type FD int

// Stat describes an inode as returned by Stat and Fstat.
type Stat struct {
	Ino   uint32
	Mode  uint16 // type and permission bits; see disklayout.MkMode
	Nlink uint16
	Size  int64
	Mtime uint64
	Ctime uint64
}

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name string
	Ino  uint32
	Type uint16 // disklayout.TypeFile, TypeDir, or TypeSym
}

// FS is the filesystem operation set shared by base, shadow, and model.
//
// The RAE supervisor records in the operation log every state-changing call
// (Mkdir, Rmdir, Create, Truncate, Unlink, Rename, Link, Symlink, SetPerm,
// WriteAt) plus the descriptor-lifecycle and durability calls the shadow
// needs to reconstruct the fd table and the stable point (Open, Close,
// Fsync, Sync) — see oplog.Kind.Mutating. The read-only calls — ReadAt,
// Stat, Fstat, Readdir, Readlink — are never recorded: reads don't widen the
// gap between the applications' view and the on-disk state (noatime), so
// replay doesn't need them.
type FS interface {
	// Mkdir creates a directory. The parent must exist.
	Mkdir(path string, perm uint16) error
	// Rmdir removes an empty directory.
	Rmdir(path string) error
	// Create exclusively creates a regular file and opens it.
	Create(path string, perm uint16) (FD, error)
	// Open opens an existing regular file.
	Open(path string) (FD, error)
	// Close releases a file descriptor.
	Close(fd FD) error
	// ReadAt reads up to n bytes at off. Short reads happen only at EOF.
	ReadAt(fd FD, off int64, n int) ([]byte, error)
	// WriteAt writes data at off, extending the file as needed. No
	// implementation keeps or modifies data after it returns: the caller may
	// reuse the buffer at once, and a supervisor may hand it to a later
	// write.
	WriteAt(fd FD, off int64, data []byte) (int, error)
	// Truncate sets a regular file's size, zero-filling on extension.
	Truncate(path string, size int64) error
	// Unlink removes a file or symlink name (never a directory).
	Unlink(path string) error
	// Rename atomically moves oldPath to newPath, replacing a compatible
	// existing target (file over file, empty dir over dir).
	Rename(oldPath, newPath string) error
	// Link creates a hard link to a regular file.
	Link(oldPath, newPath string) error
	// Symlink creates a symbolic link holding target.
	Symlink(target, linkPath string) error
	// Readlink returns a symlink's target.
	Readlink(path string) (string, error)
	// Stat describes the inode at path.
	Stat(path string) (Stat, error)
	// Fstat describes the open file's inode.
	Fstat(fd FD) (Stat, error)
	// Readdir lists a directory in on-disk entry order.
	Readdir(path string) ([]DirEntry, error)
	// SetPerm replaces an inode's permission bits.
	SetPerm(path string, perm uint16) error
	// Fsync persists an open file's data and metadata.
	Fsync(fd FD) error
	// Sync persists everything.
	Sync() error
}

// SplitPath normalizes an absolute path into its components, resolving "."
// and ".." lexically, and appends them to dst. The components are substrings
// of path, so a caller that passes a buffer with room (a stack array) splits
// without allocating. It rejects relative paths; empty components, from
// duplicate or trailing slashes, are skipped. The root appends nothing.
func SplitPath(dst []string, path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fserr.ErrInvalid
	}
	start := len(dst)
	for i := 1; i <= len(path); {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		switch c := path[i:j]; c {
		case "", ".":
			// skip
		case "..":
			// ".." at the root stays at the root, as in POSIX.
			if len(dst) > start {
				dst = dst[:len(dst)-1]
			}
		default:
			dst = append(dst, c)
		}
		i = j + 1
	}
	return dst, nil
}

// SplitDirBase normalizes path like SplitPath, appending to dst, and
// separates it into parent components and a final name. Operations that
// create or remove names use this; targeting the root (no final name) yields
// ErrInvalid.
func SplitDirBase(dst []string, path string) (dir []string, base string, err error) {
	start := len(dst)
	comps, err := SplitPath(dst, path)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == start {
		return nil, "", fserr.ErrInvalid
	}
	return comps[:len(comps)-1], comps[len(comps)-1], nil
}

// Clock is the deterministic logical clock every implementation shares: one
// tick per state-changing operation, so timestamps agree across independent
// executions of the same sequence.
type Clock struct{ now uint64 }

// Tick advances the clock and returns the new time.
func (c *Clock) Tick() uint64 { c.now++; return c.now }

// Now returns the current time without advancing.
func (c *Clock) Now() uint64 { return c.now }

// Set forces the clock, used when reconstructing state at a recorded time.
func (c *Clock) Set(v uint64) { c.now = v }
