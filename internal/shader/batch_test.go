package shader

import (
	"encoding/binary"
	"math"
	"testing"

	"rendelim/internal/geom"
)

// logSampler records every sample call and answers with a value that also
// depends on how many calls came before, so a reordered call shows up in
// the outputs as well as in the log.
type logSampler struct{ calls []sampleCall }

type sampleCall struct {
	unit int
	u, v uint32
}

func (s *logSampler) Sample(unit int, u, v float32) geom.Vec4 {
	s.calls = append(s.calls, sampleCall{unit, math.Float32bits(u), math.Float32bits(v)})
	return geom.V4(u*0.5+float32(unit), v-u, u*v, float32(len(s.calls)))
}

// specials are the values the fuzzer mixes into inputs and constants:
// signed zeros, infinities, NaN, and values at the edges sat, cmp, flr and
// rcp treat specially.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), 1, -1, 0.5, -0.5, 2, 1e-30, -3e30, 2.75, -2.75,
}

// fuzzSource turns fuzz bytes into choices; past the end it reads zeros, so
// every byte string decodes to a valid case.
type fuzzSource struct {
	data []byte
	i    int
}

func (s *fuzzSource) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	s.i++
	return s.data[s.i-1]
}

func (s *fuzzSource) intn(n int) int { return int(s.next()) % n }

// float is a special value for an even byte, else four bytes of raw bits
// (NaN payloads and denormals included).
func (s *fuzzSource) float() float32 {
	k := s.next()
	if k%2 == 0 {
		return specials[int(k/2)%len(specials)]
	}
	return math.Float32frombits(binary.LittleEndian.Uint32([]byte{s.next(), s.next(), s.next(), s.next()}))
}

func (s *fuzzSource) vec() geom.Vec4 { return geom.V4(s.float(), s.float(), s.float(), s.float()) }

// fuzzProgram decodes a valid program of 1–8 instructions: any opcode (at
// most two tex), any swizzle, negation and write mask, and one destination
// in four aliasing the first source.
func fuzzProgram(s *fuzzSource) *Program {
	p := &Program{Name: "fuzz"}
	texes := 0
	for n := 1 + s.intn(8); n > 0; n-- {
		in := Instr{Op: Op(s.intn(int(opCount))), TexUnit: uint8(s.intn(MaxTexUnit))}
		if in.Op == OpTex {
			if texes == 2 {
				in.Op = OpMov
			} else {
				texes++
			}
		}
		for k := range in.Src {
			src := Src{Swz: SwzXYZW, Neg: s.intn(4) == 0}
			switch s.intn(3) {
			case 0:
				src.File, src.Idx = FileTemp, uint8(s.intn(MaxTemps))
			case 1:
				src.File, src.Idx = FileInput, uint8(s.intn(MaxInputs))
			default:
				src.File, src.Idx = FileConst, uint8(s.intn(MaxConsts))
			}
			if s.intn(2) == 0 {
				src.Swz = Swz(uint8(s.intn(4)), uint8(s.intn(4)), uint8(s.intn(4)), uint8(s.intn(4)))
			}
			in.Src[k] = src
		}
		switch s.intn(4) {
		case 0:
			in.Src[0].File, in.Src[0].Idx = FileTemp, in.Src[0].Idx%MaxTemps
			in.Dst = RD(in.Src[0].Idx)
		case 1:
			in.Dst = RD(uint8(s.intn(MaxTemps)))
		default:
			in.Dst = OD(uint8(s.intn(MaxOutputs)))
		}
		in.Dst.Mask = uint8(s.intn(16))
		p.Instrs = append(p.Instrs, in)
	}
	return p
}

// fillAll dirties every temporary and output a Batch has, so the case that
// follows must start from zeroed registers to match the reference.
var fillAll = func() *Program {
	p := &Program{Name: "fill"}
	for r := uint8(0); r < MaxTemps; r++ {
		p.Instrs = append(p.Instrs, Instr{Op: OpMov, Dst: RD(r), Src: [3]Src{V(r)}})
	}
	for r := uint8(0); r < MaxOutputs; r++ {
		p.Instrs = append(p.Instrs, Instr{Op: OpMov, Dst: OD(r), Src: [3]Src{V(r + 4)}})
	}
	return p
}()

// FuzzBatchMatchesScalar runs a random valid program over a random batch of
// N ∈ [1, Lanes] invocations — on a Batch whose every register a previous
// batch left non-zero — and requires, bit for bit, the outputs that N
// fresh runs of the scalar reference produce, the same counts and the same
// sampler calls in the same order.
func FuzzBatchMatchesScalar(f *testing.F) {
	for op := Op(0); op < opCount; op++ {
		f.Add([]byte{2, byte(op), 1, 0, 4, 1, 5, 2, 0, 3, 2, 1, 6, 3, 3, 0, 7, 9, 1, 2, 15, 63, 1, 2, 5, 6, 8, 10, 12})
	}
	f.Add([]byte{3, byte(OpTex), 2, 0, 1, 1, 0, byte(OpTex), 3, 1, 1, 3, 1, byte(OpMad), 0, 1, 0, 0, 0, 0, 14, 40, 7})
	f.Add([]byte{1, byte(OpMov), 0, 1, 0, 1, 1, 0, 1, 2, 3, 0, 15, 9, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{data: data}
		p := fuzzProgram(s)
		if err := p.Validate(); err != nil {
			t.Fatalf("generated an invalid program: %v", err)
		}
		n := 1 + s.intn(Lanes)
		first := s.intn(MaxInputs)
		count := s.intn(MaxInputs - first + 1)
		consts := make([]geom.Vec4, s.intn(MaxConsts+1))
		for i := range consts {
			consts[i] = s.vec()
		}
		inputs := make([][]geom.Vec4, n)
		for lane := range inputs {
			for k := 0; k < count; k++ {
				inputs[lane] = append(inputs[lane], s.vec())
			}
		}

		refSampler := &logSampler{}
		var refCounts Counts
		refOut := make([][MaxOutputs]geom.Vec4, n)
		for lane, in := range inputs {
			e := &Exec{Consts: consts, Sampler: refSampler}
			copy(e.In[first:], in)
			e.Run(p)
			refOut[lane] = e.Out
			refCounts.Instructions += e.Counts.Instructions
			refCounts.TexSamples += e.Counts.TexSamples
			refCounts.Invocations += e.Counts.Invocations
		}

		b := &Batch{Sampler: &logSampler{}}
		junk := []geom.Vec4{
			geom.V4(1, 2, 3, 4), geom.V4(5, 6, 7, 8), geom.V4(-1, -2, -3, -4), geom.V4(9, 9, 9, 9),
			geom.V4(0.25, 0.5, 0.75, 1), geom.V4(11, 12, 13, 14), geom.V4(-5, -6, -7, -8), geom.V4(3, 1, 4, 1),
		}
		for lane := 0; lane < Lanes; lane++ {
			b.Push(0, junk)
		}
		b.Run(fillAll)
		before := b.Counts

		batchSampler := &logSampler{}
		b.Consts, b.Sampler = consts, batchSampler
		for _, in := range inputs {
			b.Push(first, in)
		}
		b.Run(p)

		for lane := 0; lane < n; lane++ {
			for r := 0; r < MaxOutputs; r++ {
				if got, want := b.Out(lane, r), refOut[lane][r]; !sameBits(got, want) {
					t.Fatalf("N=%d lane %d o%d = %v, reference %v\nprogram %+v", n, lane, r, got, want, p.Instrs)
				}
			}
		}
		got := b.Counts
		got.Instructions -= before.Instructions
		got.TexSamples -= before.TexSamples
		got.Invocations -= before.Invocations
		if got != refCounts {
			t.Fatalf("counts %+v, reference %+v", got, refCounts)
		}
		if len(batchSampler.calls) != len(refSampler.calls) {
			t.Fatalf("%d sampler calls, reference %d", len(batchSampler.calls), len(refSampler.calls))
		}
		for i, c := range batchSampler.calls {
			if c != refSampler.calls[i] {
				t.Fatalf("sampler call %d = %+v, reference %+v", i, c, refSampler.calls[i])
			}
		}
	})
}
