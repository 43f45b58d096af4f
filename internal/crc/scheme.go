package crc

import "math/bits"

// Scheme abstracts the signature function used by the Signature Unit, so the
// hash ablation of Section V ("CRC32 outperforms well-known hashing
// approaches such as XOR-based schemes") can swap implementations without
// touching the unit. A scheme signs a data block into a 32-bit value plus a
// shift amount (block length in subblocks) and folds block signatures into a
// running tile signature.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// SignBlock hashes one block (zero-padded to whole subblocks) and
	// returns its signature and length in subblocks.
	SignBlock(block []byte) (sig uint32, shiftAmount int)
	// Accumulate folds a block signature into the running signature acc,
	// where the block was shiftAmount subblocks long.
	Accumulate(acc, blockSig uint32, shiftAmount int) uint32
}

// CRC32Scheme is the paper's signature function: raw CRC32 combined with the
// zero-shift operator of Algorithm 1, computed by the LUT hardware of
// parallel.go. It is position- and order-sensitive.
type CRC32Scheme struct{}

// Name implements Scheme.
func (CRC32Scheme) Name() string { return "crc32" }

// SignBlock implements Scheme as the Compute CRC unit of Figure 8
// (Algorithm 2): one 64-bit subblock per cycle, signed by the sign LUTs and
// XORed with the running CRC shifted across it. A last partial subblock is
// zero-padded; the padding is the same in every frame, so signature
// comparisons are unaffected. The shift amount is the subblock count.
func (CRC32Scheme) SignBlock(block []byte) (sig uint32, shiftAmount int) {
	for ; len(block) >= SubblockBytes; block = block[SubblockBytes:] {
		sig = signSubblock(block) ^ shiftState(sig)
		shiftAmount++
	}
	if len(block) > 0 {
		var pad [SubblockBytes]byte
		copy(pad[:], block)
		sig = signSubblock(pad[:]) ^ shiftState(sig)
		shiftAmount++
	}
	return sig, shiftAmount
}

// Accumulate implements Scheme as the Accumulate CRC unit of Figure 9
// (Algorithm 3): acc is shifted across the block one subblock per cycle,
// then XOR-combined, so crc(A ‖ B) = crc(A ≪ |B|) ⊕ crc(B).
func (CRC32Scheme) Accumulate(acc, blockSig uint32, shiftAmount int) uint32 {
	for ; shiftAmount > 0; shiftAmount-- {
		acc = shiftState(acc)
	}
	return acc ^ blockSig
}

// XORFoldScheme is the weakest comparison point: the XOR of all 32-bit words.
// It is insensitive to both word order and word position, so swapping two
// primitives or moving a sprite by a whole word pattern collides.
type XORFoldScheme struct{}

// Name implements Scheme.
func (XORFoldScheme) Name() string { return "xor-fold" }

// SignBlock implements Scheme.
func (XORFoldScheme) SignBlock(block []byte) (uint32, int) {
	var sig uint32
	for len(block) >= 4 {
		sig ^= word(block)
		block = block[4:]
	}
	sig ^= partialWord(block)
	return sig, 1 // length-insensitive: everything folds flat
}

// Accumulate implements Scheme.
func (XORFoldScheme) Accumulate(acc, blockSig uint32, _ int) uint32 {
	return acc ^ blockSig
}

// RotXORScheme is a stronger XOR-based scheme: rotate-left-5 then XOR per
// word, which is position-sensitive within a block, with a rotate-by-length
// fold between blocks. Still markedly weaker than CRC32 on structured data.
type RotXORScheme struct{}

// Name implements Scheme.
func (RotXORScheme) Name() string { return "rot-xor" }

// SignBlock implements Scheme.
func (RotXORScheme) SignBlock(block []byte) (uint32, int) {
	var sig uint32
	n := 0
	for len(block) >= 4 {
		sig = bits.RotateLeft32(sig, 5) ^ word(block)
		block = block[4:]
		n += 4
	}
	if len(block) > 0 {
		sig = bits.RotateLeft32(sig, 5) ^ partialWord(block)
		n += len(block)
	}
	return sig, (PaddedLen(n)) / SubblockBytes
}

// Accumulate implements Scheme.
func (RotXORScheme) Accumulate(acc, blockSig uint32, shiftAmount int) uint32 {
	return bits.RotateLeft32(acc, shiftAmount%31+1) ^ blockSig
}

// Add32Scheme folds words with modular addition; order-insensitive.
type Add32Scheme struct{}

// Name implements Scheme.
func (Add32Scheme) Name() string { return "add32" }

// SignBlock implements Scheme.
func (Add32Scheme) SignBlock(block []byte) (uint32, int) {
	var sig uint32
	for len(block) >= 4 {
		sig += word(block)
		block = block[4:]
	}
	sig += partialWord(block)
	return sig, 1
}

// Accumulate implements Scheme.
func (Add32Scheme) Accumulate(acc, blockSig uint32, _ int) uint32 {
	return acc + blockSig
}

// Schemes lists every available signature scheme, CRC32 first.
func Schemes() []Scheme {
	return []Scheme{CRC32Scheme{}, RotXORScheme{}, XORFoldScheme{}, Add32Scheme{}}
}

// SchemeByName returns the scheme whose Name is name; ok is false for an
// unknown name.
func SchemeByName(name string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

func word(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func partialWord(b []byte) uint32 {
	var w uint32
	for i, v := range b {
		w |= uint32(v) << (8 * uint(i))
	}
	return w
}
