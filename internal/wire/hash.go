package wire

// Hashing helpers shared by the DHT key space, page placement and
// checksums. There are two checksums with two jobs:
//
//   - Checksum64 is the end-to-end page-integrity checksum: CRC-32C
//     (Castagnoli), which the standard library computes with the CPU's
//     CRC instruction at memory speed. Leaves and stripe refs record it
//     at write time; readers, hedged fetches and repair verify it.
//   - FNV1a64 is the checksum of the persisted and logged formats: the
//     diskstore record and sidecar (docs/diskstore-format.md) and the
//     vmanager publish-log frame. It is part of those byte layouts and
//     never changes with the page checksum.
//
// Key dispersal uses a splitmix64-style finalizer, whose avalanche
// behaviour gives the uniform node spread the segment-tree dispersal
// relies on.

import "hash/crc32"

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// castagnoli is the CRC-32C table; crc32 uses the hardware instruction
// when the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum64 returns the CRC-32C of p, zero-extended to the 64-bit
// checksum fields of leaves, stripe refs and pull refs. It is the page
// integrity check: writers record it and readers verify it.
func Checksum64(p []byte) uint64 {
	return uint64(crc32.Checksum(p, castagnoli))
}

// FNV1a64 returns the FNV-1a 64-bit hash of p, the checksum of the
// diskstore record and sidecar formats and of the vmanager log frame.
func FNV1a64(p []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// Mix64 finalizes x with the splitmix64 mixing function. All bits of the
// input affect all bits of the output, so consecutive keys (version
// numbers, page indexes) disperse uniformly over the ring.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashFields mixes a sequence of integers into one well-dispersed key.
// It is the canonical way to derive a DHT key from a composite identity
// such as (blobID, version, offset, size).
func HashFields(fields ...uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, f := range fields {
		h ^= Mix64(f)
		h *= fnvPrime64
		h = Mix64(h)
	}
	return h
}
