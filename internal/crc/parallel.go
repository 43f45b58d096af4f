package crc

// This file models the table-based hardware of Section III-D and Figures
// 8-11: the Sign subunit (eight 1 KB LUTs signing one 64-bit subblock per
// cycle) and the Shift subunit (advancing a 32-bit CRC state across one
// 64-bit subblock of zeros per cycle). CRC32Scheme builds the Compute and
// Accumulate CRC units from them (Algorithms 2 and 3); the Signature Unit
// charges their LUT reads by the two costs below, for every scheme.

const (
	// SubblockBytes is the width of one hardware subblock (8 bytes).
	// Section III-G justifies this choice: wider subblocks need more LUT
	// storage, and narrower ones raise signing latency.
	SubblockBytes = 8
	// ShiftLUTReads is the Shift subunit's LUT reads per subblock: one per
	// byte of the 32-bit state (Figure 11).
	ShiftLUTReads = 4
	// SignLUTReads is the Compute CRC unit's LUT reads per subblock it
	// signs: the eight sign LUTs plus the shift of the running CRC.
	SignLUTReads = SubblockBytes + ShiftLUTReads
)

// signLUT[i][v] is the raw CRC32 of the 8-byte message with byte v at
// position i and zeros elsewhere. Eight LUTs of 256 x 4 B = 1 KB each
// (Figure 10); the CRC of a full subblock is the XOR of the eight lookups,
// by GF(2) linearity of the raw CRC.
var signLUT [SubblockBytes][256]uint32

// shiftLUT[j][v] is the raw CRC state reached by shifting state byte v (at
// byte position j of the 32-bit state) across 8 zero bytes (Figure 11). The
// shift of a full state is the XOR of four lookups.
var shiftLUT [ShiftLUTReads][256]uint32

func initSubunitTables() {
	var msg [SubblockBytes]byte
	for i := 0; i < SubblockBytes; i++ {
		for v := 0; v < 256; v++ {
			msg = [SubblockBytes]byte{}
			msg[i] = byte(v)
			signLUT[i][v] = Update(0, msg[:])
		}
	}
	for j := 0; j < ShiftLUTReads; j++ {
		for v := 0; v < 256; v++ {
			shiftLUT[j][v] = ShiftZeros(uint32(v)<<(8*uint(j)), SubblockBytes)
		}
	}
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

// PaddedLen returns the number of bytes the Compute CRC unit signs for a
// block of n bytes (n rounded up to a whole subblock).
func PaddedLen(n int) int {
	return (n + SubblockBytes - 1) / SubblockBytes * SubblockBytes
}
