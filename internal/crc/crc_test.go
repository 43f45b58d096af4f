package crc

import (
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// Update runs through hash/crc32, which picks a kernel by length: bytewise
// below 16 bytes, slicing-by-8 from 16, and carry-less multiplication from
// 64 on CPUs that have it. Every length up to 4096, each at a random
// offset modulo 8 and from a random state, pins each kernel to the shift
// register.
func TestUpdateMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096+8)
	rng.Read(buf)
	for n := 0; n <= 4096; n++ {
		off := rng.Intn(8)
		data := buf[off : off+n]
		init := rng.Uint32()
		if got, want := Update(init, data), UpdateBitwise(init, data); got != want {
			t.Fatalf("len %d at offset %d from %08x: Update=%08x bitwise=%08x", n, off, init, got, want)
		}
	}
}

// The raw CRC relates to the IEEE-conditioned hash/crc32 value by
// ieee(m) = raw(m) ^ raw(0xFFFFFFFF ≪ |m|) ^ 0xFFFFFFFF, because the IEEE
// variant initializes the register to all-ones (equivalent to XORing the
// first 4 message bytes with 0xFFFFFFFF) and complements the output.
func TestRawVsIEEE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(128)
		data := make([]byte, n)
		rng.Read(data)
		raw := Checksum(data)
		initEffect := ShiftZeros(0xFFFFFFFF, n)
		got := raw ^ initEffect ^ 0xFFFFFFFF
		if want := crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("n=%d: reconstructed IEEE %08x, want %08x", n, got, want)
		}
	}
}

func TestShiftZerosMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zeros := make([]byte, 300)
	for trial := 0; trial < 100; trial++ {
		c := rng.Uint32()
		n := rng.Intn(300)
		if got, want := ShiftZeros(c, n), Update(c, zeros[:n]); got != want {
			t.Fatalf("ShiftZeros(%08x,%d)=%08x, want %08x", c, n, got, want)
		}
	}
}

func TestShiftZerosFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		c := rng.Uint32()
		n := rng.Intn(5000)
		if got, want := ShiftZerosFast(c, n), ShiftZeros(c, n); got != want {
			t.Fatalf("fast(%08x,%d)=%08x, want %08x", c, n, got, want)
		}
	}
}

func TestShiftZerosFastNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative length")
		}
	}()
	ShiftZerosFast(1, -1)
}

// Algorithm 1's combine step: crc(A ‖ B) == crc(A ≪ 8·len(B)) ⊕ crc(B),
// which CRC32Scheme.Accumulate applies per block.
func TestCombineAlgorithm1(t *testing.T) {
	f := func(a, b []byte) bool {
		whole := Checksum(append(append([]byte{}, a...), b...))
		return ShiftZerosFast(Checksum(a), len(b))^Checksum(b) == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Chained combination over many submessages of random lengths equals the
// direct CRC of the concatenation — the full incremental procedure of
// Algorithm 1.
func TestIncrementalChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var whole []byte
		var acc uint32
		for i := 0; i < 1+rng.Intn(10); i++ {
			sub := make([]byte, rng.Intn(40))
			rng.Read(sub)
			whole = append(whole, sub...)
			acc = ShiftZerosFast(acc, len(sub)) ^ Checksum(sub)
		}
		if want := Checksum(whole); acc != want {
			t.Fatalf("trial %d: incremental %08x, direct %08x", trial, acc, want)
		}
	}
}

// Linearity over GF(2): for equal-length messages, crc(a ⊕ b) = crc(a) ⊕ crc(b).
func TestQuickLinearity(t *testing.T) {
	f := func(a, b []byte) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		x := make([]byte, n)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		return Checksum(x) == Checksum(a)^Checksum(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeUnitMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var u ComputeUnit
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100)
		data := make([]byte, n)
		rng.Read(data)
		padded := make([]byte, PaddedLen(n))
		copy(padded, data)

		crc, shift := u.Sign(data)
		if want := Checksum(padded); crc != want {
			t.Fatalf("n=%d: unit %08x, direct %08x", n, crc, want)
		}
		if want := PaddedLen(n) / SubblockBytes; shift != want {
			t.Fatalf("n=%d: shift %d, want %d", n, shift, want)
		}
	}
}

func TestComputeUnitLatencyPaperExamples(t *testing.T) {
	// Section III-G: the average constants command updates 16 values
	// (64 bytes) => 8 cycles; the average primitive carries 3 attributes of
	// 48 bytes (144 bytes) => 18 cycles.
	var u ComputeUnit
	if _, shift := u.Sign(make([]byte, 64)); shift != 8 {
		t.Fatalf("constants block shift = %d, want 8", shift)
	}
	if u.Stats.Cycles != 8 {
		t.Fatalf("constants cycles = %d, want 8", u.Stats.Cycles)
	}
	u.Stats = UnitStats{}
	if _, shift := u.Sign(make([]byte, 144)); shift != 18 {
		t.Fatalf("primitive shift = %d, want 18", shift)
	}
	if u.Stats.Cycles != 18 {
		t.Fatalf("primitive cycles = %d, want 18", u.Stats.Cycles)
	}
	if u.Stats.LUTAccesses != 18*(SubblockBytes+4) {
		t.Fatalf("LUT accesses = %d", u.Stats.LUTAccesses)
	}
}

func TestAccumulateUnitMatchesShiftZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var u AccumulateUnit
	for trial := 0; trial < 100; trial++ {
		c := rng.Uint32()
		k := rng.Intn(30)
		if got, want := u.Shift(c, k), ShiftZeros(c, k*SubblockBytes); got != want {
			t.Fatalf("Shift(%08x,%d)=%08x, want %08x", c, k, got, want)
		}
	}
	if u.Stats.LUTAccesses != 4*u.Stats.Subblocks {
		t.Fatalf("accumulate LUT accounting inconsistent: %+v", u.Stats)
	}
}

// The full hardware path (Compute unit + Accumulate unit, Algorithms 1-3)
// must reproduce the direct CRC of a concatenated tile-input message.
func TestHardwarePathEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var cu ComputeUnit
	var au AccumulateUnit
	for trial := 0; trial < 50; trial++ {
		var whole []byte
		var tileCRC uint32
		for b := 0; b < 1+rng.Intn(8); b++ {
			block := make([]byte, 1+rng.Intn(60))
			rng.Read(block)
			padded := make([]byte, PaddedLen(len(block)))
			copy(padded, block)
			whole = append(whole, padded...)

			blockCRC, shift := cu.Sign(block)
			tileCRC = au.Shift(tileCRC, shift) ^ blockCRC
		}
		if want := Checksum(whole); tileCRC != want {
			t.Fatalf("trial %d: hardware %08x, direct %08x", trial, tileCRC, want)
		}
	}
}

func TestPaddedLen(t *testing.T) {
	cases := map[int]int{0: 0, 1: 8, 7: 8, 8: 8, 9: 16, 64: 64, 65: 72}
	for n, want := range cases {
		if got := PaddedLen(n); got != want {
			t.Fatalf("PaddedLen(%d)=%d, want %d", n, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
