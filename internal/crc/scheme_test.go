package crc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Every scheme must be deterministic: signing the same blocks in the same
// order yields the same signature.
func TestSchemesDeterministic(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			f := func(blocks [][]byte) bool {
				run := func() uint32 {
					var acc uint32
					for _, b := range blocks {
						sig, shift := s.SignBlock(b)
						acc = s.Accumulate(acc, sig, shift)
					}
					return acc
				}
				return run() == run()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// CRC32 distinguishes reordered blocks; xor-fold and add32 do not. This is
// the structural weakness behind the paper's "CRC32 outperforms XOR-based
// schemes" claim, pinned down as a unit test.
func TestOrderSensitivity(t *testing.T) {
	a := []byte("primitive-A-attributes-0123456789abcdef")
	b := []byte("primitive-B-attributes-fedcba9876543210")

	run := func(s Scheme, blocks ...[]byte) uint32 {
		var acc uint32
		for _, blk := range blocks {
			sig, shift := s.SignBlock(blk)
			acc = s.Accumulate(acc, sig, shift)
		}
		return acc
	}

	if run(CRC32Scheme{}, a, b) == run(CRC32Scheme{}, b, a) {
		t.Fatal("crc32 failed to distinguish block order")
	}
	if run(RotXORScheme{}, a, b) == run(RotXORScheme{}, b, a) {
		t.Fatal("rot-xor should distinguish block order for distinct blocks")
	}
	if run(XORFoldScheme{}, a, b) != run(XORFoldScheme{}, b, a) {
		t.Fatal("xor-fold unexpectedly order-sensitive")
	}
	if run(Add32Scheme{}, a, b) != run(Add32Scheme{}, b, a) {
		t.Fatal("add32 unexpectedly order-sensitive")
	}
}

// xor-fold collides when a value toggles twice (self-inverse), e.g. a sprite
// moving away and an identical sprite appearing elsewhere in the stream.
func TestXORFoldSelfInverseCollision(t *testing.T) {
	s := XORFoldScheme{}
	x := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sigX, sh := s.SignBlock(x)
	acc := s.Accumulate(0, sigX, sh)
	acc = s.Accumulate(acc, sigX, sh)
	if acc != 0 {
		t.Fatalf("xor-fold double-insert = %08x, want 0 (collision with empty)", acc)
	}
	// CRC32 does not collapse the same way.
	c := CRC32Scheme{}
	sigC, shC := c.SignBlock(x)
	accC := c.Accumulate(c.Accumulate(0, sigC, shC), sigC, shC)
	if accC == 0 {
		t.Fatal("crc32 unexpectedly collapsed double-insert to empty signature")
	}
}

// Measure random-collision behaviour: over random distinct block streams the
// schemes should almost never collide; the point of the ablation harness is
// structured (adversarial) data, but sanity-check randomness here.
func TestRandomCollisionRates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials = 2000
	for _, s := range Schemes() {
		seen := make(map[uint32]int, trials)
		collisions := 0
		for i := 0; i < trials; i++ {
			block := make([]byte, 48)
			rng.Read(block)
			sig, shift := s.SignBlock(block)
			acc := s.Accumulate(0, sig, shift)
			if _, dup := seen[acc]; dup {
				collisions++
			}
			seen[acc] = i
		}
		// Birthday bound: expected ~ trials^2/2^33 < 1; allow small slack.
		if collisions > 3 {
			t.Fatalf("%s: %d random collisions in %d trials", s.Name(), collisions, trials)
		}
	}
}

func TestPartialWord(t *testing.T) {
	if partialWord(nil) != 0 {
		t.Fatal("partialWord(nil) != 0")
	}
	if got := partialWord([]byte{0xAB}); got != 0xAB {
		t.Fatalf("partialWord 1 byte = %08x", got)
	}
	if got := partialWord([]byte{0x01, 0x02, 0x03}); got != 0x030201 {
		t.Fatalf("partialWord 3 bytes = %08x", got)
	}
}
