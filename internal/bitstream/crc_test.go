package bitstream

import (
	"math/rand"
	"testing"
)

// crcUpdateBitSerial is the reference CRC fold: one shift-xor step per input
// bit, 32 data bits then 4 register-address bits, LSB first. crcUpdate's
// nibble table must reproduce it exactly.
func crcUpdateBitSerial(crc uint16, addr int, word uint32) uint16 {
	data := uint64(word) | uint64(addr&0xF)<<32
	for i := 0; i < 36; i++ {
		bit := uint16(data>>i) & 1
		fb := (crc >> 15) ^ bit
		crc <<= 1
		if fb == 1 {
			crc ^= crcPoly
		}
	}
	return crc
}

// TestCRCTableMatchesBitSerial checks the table-driven CRC against the
// bit-serial reference by enumeration over every CRC register value and
// register address for a few words, then over random triples.
func TestCRCTableMatchesBitSerial(t *testing.T) {
	check := func(crc uint16, addr int, word uint32) {
		if got, want := crcUpdate(crc, addr, word), crcUpdateBitSerial(crc, addr, word); got != want {
			t.Fatalf("crcUpdate(%#04x, %d, %#08x) = %#04x, want %#04x", crc, addr, word, got, want)
		}
	}
	for _, word := range []uint32{0, 0xFFFFFFFF, SyncWord, 0x80000001, 0x12345678} {
		for addr := 0; addr < 16; addr++ {
			for crc := 0; crc <= 0xFFFF; crc++ {
				check(uint16(crc), addr, word)
			}
		}
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2_000_000; i++ {
		check(uint16(rng.Uint32()), rng.Intn(16), rng.Uint32())
	}
	// The register address is masked to four bits, as the bit-serial fold
	// masks it.
	check(0x1234, 0x12, 0xDEADBEEF)
}
