package crc

// This file models the table-based hardware of Section III-D and Figures
// 8-11: the Sign subunit (eight 1 KB LUTs signing one 64-bit subblock per
// cycle), the Shift subunit (advancing a 32-bit CRC state across one 64-bit
// subblock of zeros per cycle), and the Compute / Accumulate CRC units built
// from them (Algorithms 2 and 3). Each unit counts cycles and LUT accesses so
// the timing and energy models can charge for them.

// SubblockBytes is the width of one hardware subblock (8 bytes). Section
// III-G justifies this choice: wider subblocks need more LUT storage, and
// narrower ones raise signing latency.
const SubblockBytes = 8

// signLUT[i][v] is the raw CRC32 of the 8-byte message with byte v at
// position i and zeros elsewhere. Eight LUTs of 256 x 4 B = 1 KB each
// (Figure 10); the CRC of a full subblock is the XOR of the eight lookups,
// by GF(2) linearity of the raw CRC.
var signLUT [SubblockBytes][256]uint32

// shiftLUT[j][v] is the raw CRC state reached by shifting state byte v (at
// byte position j of the 32-bit state) across 8 zero bytes (Figure 11). The
// shift of a full state is the XOR of four lookups.
var shiftLUT [4][256]uint32

func initSubunitTables() {
	var msg [SubblockBytes]byte
	for i := 0; i < SubblockBytes; i++ {
		for v := 0; v < 256; v++ {
			msg = [SubblockBytes]byte{}
			msg[i] = byte(v)
			signLUT[i][v] = Update(0, msg[:])
		}
	}
	for j := 0; j < 4; j++ {
		for v := 0; v < 256; v++ {
			shiftLUT[j][v] = ShiftZeros(uint32(v)<<(8*uint(j)), SubblockBytes)
		}
	}
}

// UnitStats counts the activity of a hardware CRC unit for the energy model.
type UnitStats struct {
	Cycles      uint64 // occupancy in cycles (1 per subblock / iteration)
	LUTAccesses uint64 // individual 1 KB LUT reads
	Subblocks   uint64 // 64-bit subblocks processed
}

// signSubblock signs one full 64-bit subblock with the eight sign LUTs.
func signSubblock(b []byte) uint32 {
	_ = b[SubblockBytes-1]
	return signLUT[0][b[0]] ^ signLUT[1][b[1]] ^ signLUT[2][b[2]] ^
		signLUT[3][b[3]] ^ signLUT[4][b[4]] ^ signLUT[5][b[5]] ^
		signLUT[6][b[6]] ^ signLUT[7][b[7]]
}

// shiftState advances a CRC state across one subblock of zeros with the four
// shift LUTs.
func shiftState(c uint32) uint32 {
	return shiftLUT[0][byte(c)] ^ shiftLUT[1][byte(c>>8)] ^
		shiftLUT[2][byte(c>>16)] ^ shiftLUT[3][byte(c>>24)]
}

// ComputeUnit is the Compute CRC unit of Figure 8. It signs a variable-length
// data block by iterating Algorithm 2 over 64-bit subblocks, producing the
// block's CRC and its length in subblocks (the "Shift Amount" register).
//
// Blocks whose length is not a multiple of 8 bytes are zero-padded to the
// next subblock; the padding convention is applied identically in every
// frame, so signature comparisons are unaffected.
type ComputeUnit struct {
	Stats UnitStats
}

// Sign signs block and returns its CRC and shift amount (subblock count).
// The hardware cost is one cycle and twelve LUT reads (8 sign + 4 shift) per
// subblock.
func (u *ComputeUnit) Sign(block []byte) (crc uint32, shiftAmount int) {
	var pad [SubblockBytes]byte
	for len(block) > 0 {
		var sb []byte
		if len(block) >= SubblockBytes {
			sb = block[:SubblockBytes]
			block = block[SubblockBytes:]
		} else {
			pad = [SubblockBytes]byte{}
			copy(pad[:], block)
			sb = pad[:]
			block = nil
		}
		crc = signSubblock(sb) ^ shiftState(crc)
		shiftAmount++
	}
	u.Stats.Cycles += uint64(shiftAmount)
	u.Stats.LUTAccesses += uint64(shiftAmount) * (SubblockBytes + 4)
	u.Stats.Subblocks += uint64(shiftAmount)
	return crc, shiftAmount
}

// PaddedLen returns the number of bytes Sign effectively processes for a
// block of n bytes (n rounded up to a whole subblock).
func PaddedLen(n int) int {
	return (n + SubblockBytes - 1) / SubblockBytes * SubblockBytes
}

// AccumulateUnit is the Accumulate CRC unit of Figure 9: a bare Shift subunit
// iterated shiftAmount times (Algorithm 3), used to left-shift a tile's
// stored CRC past a newly signed block before XOR-combining.
type AccumulateUnit struct {
	Stats UnitStats
}

// Shift advances crc across shiftAmount subblocks of zeros. Latency is
// shiftAmount cycles with four LUT reads each. Distinct tiles are
// independent, so a pipelined implementation sustains roughly one tile per
// cycle; the Signature Unit's timing model accounts for that separately.
func (u *AccumulateUnit) Shift(crc uint32, shiftAmount int) uint32 {
	for i := 0; i < shiftAmount; i++ {
		crc = shiftState(crc)
	}
	u.Stats.Cycles += uint64(shiftAmount)
	u.Stats.LUTAccesses += 4 * uint64(shiftAmount)
	u.Stats.Subblocks += uint64(shiftAmount)
	return crc
}
