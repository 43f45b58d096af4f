package shader

import (
	"math/bits"

	"rendelim/internal/geom"
)

// Lanes is how many invocations a Batch holds: one lane per invocation, the
// way a shader core runs fragments in warps.
const Lanes = 64

// laneReg is one vec4 register across every lane, component-major: r[k][i]
// is component k (x, y, z, w) of lane i.
type laneReg [4][Lanes]float32

// operand is a decoded source: per component, the lane array that holds it
// after swizzle and negation.
type operand [4]*[Lanes]float32

// Batch is the shader VM. It runs one program over up to Lanes invocations
// at a time, in structure-of-arrays form: each instruction decodes its
// operands once and then loops over the lanes, so an invocation pays for
// the arithmetic, not the dispatch.
//
// Push each invocation's inputs, Run the program, then read Out. Every
// invocation starts from zeroed temporaries and outputs, and an input it
// was not given reads as zero, so no invocation can observe another's
// registers. Lane arithmetic repeats geom.Vec4's operation order — mad is
// a*b + c, dot products add left to right, negation multiplies by -1 — so
// each lane's results equal a run of that invocation alone bit for bit,
// NaN payloads aside: Go leaves open which NaN an add of two NaNs returns.
// Consts and Sampler apply to every lane. A Batch is not safe for
// concurrent use; allocate one per goroutine.
type Batch struct {
	Consts  []geom.Vec4
	Sampler Sampler
	Counts  Counts

	n     int // invocations in the open batch
	in    [MaxInputs]laneReg
	out   [MaxOutputs]laneReg
	temps [MaxTemps]laneReg

	src [3]laneReg // constant and negated operands, materialized per lane
	res laneReg    // staging for splat results and aliased writes

	// Which registers some lane may hold a non-zero value in, so only what
	// a program can observe gets zeroed: inputs by register, temporaries
	// and outputs by component (bit 4*reg + comp).
	inSet     uint8
	tempDirty uint32
	outDirty  uint16
}

// Push adds an invocation whose inputs v[first], v[first+1], … are in and
// returns its lane. It panics if the batch already holds Lanes invocations.
//
//re:hotpath
func (b *Batch) Push(first int, in []geom.Vec4) int {
	lane := b.n
	if lane == Lanes {
		panic("shader: Push on a full Batch")
	}
	var set uint8
	for k, v := range in {
		r := &b.in[first+k]
		r[0][lane], r[1][lane], r[2][lane], r[3][lane] = v.X, v.Y, v.Z, v.W
		set |= 1 << (first + k)
	}
	for stale := b.inSet &^ set; stale != 0; stale &= stale - 1 {
		r := &b.in[bits.TrailingZeros8(stale)]
		r[0][lane], r[1][lane], r[2][lane], r[3][lane] = 0, 0, 0, 0
	}
	b.inSet |= set
	b.n++
	return lane
}

// Out returns output register reg of lane as the last Run left it.
func (b *Batch) Out(lane, reg int) geom.Vec4 {
	r := &b.out[reg]
	return geom.Vec4{X: r[0][lane], Y: r[1][lane], Z: r[2][lane], W: r[3][lane]}
}

// Run executes the validated program p for every invocation of the open
// batch and empties it; Out reads the results until the next Run. Each
// instruction runs across all lanes before the next one, except in a
// program with two or more tex instructions: that runs one invocation at a
// time, so the Sampler sees every program's samples in invocation order.
// Counts grow by N per batch of N invocations, as N single runs would.
//
//re:hotpath
func (b *Batch) Run(p *Program) {
	n := b.n
	b.n = 0
	if n == 0 {
		return
	}
	texes := b.clearRegisters(p)
	if texes >= 2 {
		for lane := 0; lane < n; lane++ {
			b.exec(p, lane, lane+1)
		}
	} else {
		b.exec(p, 0, n)
	}
	b.Counts.Instructions += uint64(n * len(p.Instrs))
	b.Counts.TexSamples += uint64(n * texes)
	b.Counts.Invocations += uint64(n)
}

// clearRegisters zeroes, across all lanes, the temporary components p reads
// before writing them and the output components p never writes, wherever
// an earlier Run may have left a value. It returns p's tex count.
//
//re:hotpath
func (b *Batch) clearRegisters(p *Program) (texes int) {
	var readFirst, tempWrites uint32
	var outWrites uint16
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for s := 0; s < nsrc[in.Op]; s++ {
			if src := &in.Src[s]; src.File == FileTemp {
				for _, c := range src.Swz {
					readFirst |= (1 << (4*uint32(src.Idx) + uint32(c))) &^ tempWrites
				}
			}
		}
		mask := uint32(in.Dst.Mask)
		if mask == 0 {
			mask = MaskXYZW
		}
		if in.Dst.File == FileOutput {
			outWrites |= uint16(mask) << (4 * in.Dst.Idx)
		} else {
			tempWrites |= mask << (4 * uint32(in.Dst.Idx))
		}
		if in.Op == OpTex {
			texes++
		}
	}
	for z := readFirst & b.tempDirty; z != 0; z &= z - 1 {
		bit := bits.TrailingZeros32(z)
		b.temps[bit/4][bit%4] = [Lanes]float32{}
	}
	b.tempDirty = b.tempDirty&^readFirst | tempWrites
	for z := b.outDirty &^ outWrites; z != 0; z &= z - 1 {
		bit := bits.TrailingZeros16(z)
		b.out[bit/4][bit%4] = [Lanes]float32{}
	}
	b.outDirty = outWrites
	return texes
}

// exec runs every instruction of p over lanes [lo, hi).
//
//re:hotpath
func (b *Batch) exec(p *Program, lo, hi int) {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		var a, bo, c operand
		a = b.operand(&in.Src[0], 0, lo, hi)
		if nsrc[in.Op] > 1 {
			bo = b.operand(&in.Src[1], 1, lo, hi)
		}
		if nsrc[in.Op] > 2 {
			c = b.operand(&in.Src[2], 2, lo, hi)
		}
		var d *laneReg
		if in.Dst.File == FileOutput {
			d = &b.out[in.Dst.Idx]
		} else {
			d = &b.temps[in.Dst.Idx]
		}
		mask := in.Dst.Mask
		if mask == 0 {
			mask = MaskXYZW
		}

		switch in.Op {
		case OpDP3, OpDP4, OpRcp, OpRsq:
			s := b.res[0][lo:hi]
			switch in.Op {
			case OpDP3:
				dot3(s, a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], bo[0][lo:hi], bo[1][lo:hi], bo[2][lo:hi])
			case OpDP4:
				dot4(s, a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], a[3][lo:hi],
					bo[0][lo:hi], bo[1][lo:hi], bo[2][lo:hi], bo[3][lo:hi])
			case OpRcp:
				apply(s, a[0][lo:hi], rcp)
			case OpRsq:
				apply(s, a[0][lo:hi], rsq)
			}
			for k := 0; k < 4; k++ {
				if mask&(1<<k) != 0 {
					copy(d[k][lo:hi], s)
				}
			}
		case OpTex:
			for l := lo; l < hi; l++ {
				v := b.Sampler.Sample(int(in.TexUnit), a[0][l], a[1][l])
				b.res[0][l], b.res[1][l], b.res[2][l], b.res[3][l] = v.X, v.Y, v.Z, v.W
			}
			for k := 0; k < 4; k++ {
				if mask&(1<<k) != 0 {
					copy(d[k][lo:hi], b.res[k][lo:hi])
				}
			}
		default:
			// Component-wise ops write straight into the destination unless
			// a source is the destination read through a swizzle that moves
			// components: then a component could be read after it was
			// overwritten, so the result is staged first.
			w := d
			if aliased(in, mask) {
				w = &b.res
			}
			for k := 0; k < 4; k++ {
				if mask&(1<<k) == 0 {
					continue
				}
				dk, x := w[k][lo:hi], a[k][lo:hi]
				switch in.Op {
				case OpMov:
					copy(dk, x)
				case OpAdd:
					add(dk, x, bo[k][lo:hi])
				case OpSub:
					sub(dk, x, bo[k][lo:hi])
				case OpMul:
					mul(dk, x, bo[k][lo:hi])
				case OpMad:
					mad(dk, x, bo[k][lo:hi], c[k][lo:hi])
				case OpMin:
					apply2(dk, x, bo[k][lo:hi], minf)
				case OpMax:
					apply2(dk, x, bo[k][lo:hi], maxf)
				case OpFrc:
					apply(dk, x, frc)
				case OpFlr:
					apply(dk, x, flr)
				case OpSat:
					apply(dk, x, clamp01)
				case OpCmp:
					sel(dk, x, bo[k][lo:hi], c[k][lo:hi])
				}
			}
			if w != d {
				for k := 0; k < 4; k++ {
					if mask&(1<<k) != 0 {
						copy(d[k][lo:hi], w[k][lo:hi])
					}
				}
			}
		}
	}
}

// operand decodes source s for lanes [lo, hi). Temporaries and inputs are
// read in place through the swizzle; a constant is broadcast, and a negated
// source copied, into scratch slot. Like the scalar interpreter, it reads a
// constant beyond Consts, or a file no source may name, as zero.
//
//re:hotpath
func (b *Batch) operand(s *Src, slot, lo, hi int) operand {
	var reg *laneReg
	switch s.File {
	case FileTemp:
		reg = &b.temps[s.Idx]
	case FileInput:
		reg = &b.in[s.Idx]
	default:
		var v geom.Vec4
		if s.File == FileConst && int(s.Idx) < len(b.Consts) {
			v = b.Consts[s.Idx]
		}
		dst := &b.src[slot]
		for k := 0; k < 4; k++ {
			x := v.Comp(int(s.Swz[k]))
			if s.Neg {
				x *= -1
			}
			fill(dst[k][lo:hi], x)
		}
		return operand{&dst[0], &dst[1], &dst[2], &dst[3]}
	}
	o := operand{&reg[s.Swz[0]], &reg[s.Swz[1]], &reg[s.Swz[2]], &reg[s.Swz[3]]}
	if s.Neg {
		dst := &b.src[slot]
		for k := 0; k < 4; k++ {
			neg(dst[k][lo:hi], o[k][lo:hi])
			o[k] = &dst[k]
		}
	}
	return o
}

// aliased reports whether a component-wise instruction reads its
// destination register through a swizzle that, within the write mask,
// sends some component to a different one.
func aliased(in *Instr, mask uint8) bool {
	if in.Dst.File != FileTemp {
		return false
	}
	for s := 0; s < nsrc[in.Op]; s++ {
		src := &in.Src[s]
		if src.File != FileTemp || src.Idx != in.Dst.Idx || src.Neg {
			continue
		}
		for k := 0; k < 4; k++ {
			if mask&(1<<k) != 0 && src.Swz[k] != uint8(k) {
				return true
			}
		}
	}
	return false
}

// Lane kernels. Each takes equal-length slices, one element per lane.

func fill(d []float32, v float32) {
	for i := range d {
		d[i] = v
	}
}

func neg(d, x []float32) {
	x = x[:len(d)]
	for i := range d {
		d[i] = x[i] * -1
	}
}

func add(d, x, y []float32) {
	x, y = x[:len(d)], y[:len(d)]
	for i := range d {
		d[i] = x[i] + y[i]
	}
}

func sub(d, x, y []float32) {
	x, y = x[:len(d)], y[:len(d)]
	for i := range d {
		d[i] = x[i] - y[i]
	}
}

func mul(d, x, y []float32) {
	x, y = x[:len(d)], y[:len(d)]
	for i := range d {
		d[i] = x[i] * y[i]
	}
}

func mad(d, x, y, z []float32) {
	x, y, z = x[:len(d)], y[:len(d)], z[:len(d)]
	for i := range d {
		d[i] = x[i]*y[i] + z[i]
	}
}

func sel(d, x, y, z []float32) {
	x, y, z = x[:len(d)], y[:len(d)], z[:len(d)]
	for i := range d {
		d[i] = cmp(x[i], y[i], z[i])
	}
}

func dot3(d, x0, x1, x2, y0, y1, y2 []float32) {
	x0, x1, x2 = x0[:len(d)], x1[:len(d)], x2[:len(d)]
	y0, y1, y2 = y0[:len(d)], y1[:len(d)], y2[:len(d)]
	for i := range d {
		d[i] = x0[i]*y0[i] + x1[i]*y1[i] + x2[i]*y2[i]
	}
}

func dot4(d, x0, x1, x2, x3, y0, y1, y2, y3 []float32) {
	x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
	y0, y1, y2, y3 = y0[:len(d)], y1[:len(d)], y2[:len(d)], y3[:len(d)]
	for i := range d {
		d[i] = x0[i]*y0[i] + x1[i]*y1[i] + x2[i]*y2[i] + x3[i]*y3[i]
	}
}

// apply and apply2 map a scalar function over the lanes; the compiler
// inlines the small ones this file passes.
func apply(d, x []float32, f func(float32) float32) {
	x = x[:len(d)]
	for i := range d {
		d[i] = f(x[i])
	}
}

func apply2(d, x, y []float32, f func(a, b float32) float32) {
	x, y = x[:len(d)], y[:len(d)]
	for i := range d {
		d[i] = f(x[i], y[i])
	}
}

func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
