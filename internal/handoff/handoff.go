// Package handoff defines the lean, checksummed interface that carries the
// shadow filesystem's output back to the rebooted base: "a set of file
// descriptors and on-disk metadata structures" (§3.2).
//
// The paper stresses that this interface "requires a lean, well-defined, and
// thoroughly tested interface" (§4.3) because it is trusted code shared
// between the two worlds. What crosses is therefore plain values in one
// format: a stream of sealed Chunks (block images keyed by block number,
// deep-copied by the shadow when it emits them) closed by a sealed Manifest
// (the descriptor table, the clock, and a chain over the chunks' checksums).
// The base re-validates each before absorbing it.
package handoff

import (
	"encoding/binary"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
)

// FDEntry restores one application-visible file descriptor.
type FDEntry struct {
	FD  fsapi.FD
	Ino uint32
}

// chain is a running checksum over a sequence of byte strings.
type chain struct {
	acc uint32
	// hdr is scratch for acc's bytes. The CRC call makes its argument escape,
	// so as a field it costs one allocation per chain where a local would
	// cost one per fold.
	hdr [4]byte
}

// fold replaces acc with the CRC32C of acc's four little-endian bytes
// followed by b, computed without joining the two.
func (c *chain) fold(b []byte) {
	binary.LittleEndian.PutUint32(c.hdr[:], c.acc)
	c.acc = disklayout.ChecksumUpdate(disklayout.Checksum(c.hdr[:]), b)
}
