package shader

import "rendelim/internal/geom"

// Exec is the scalar reference interpreter: one invocation per Run, every
// operand decoded per invocation. It is what Batch must reproduce bit for
// bit, so it stays as written, lane-free. Set In and Consts, call Run, read
// Out. Run zeroes the temporaries only; the oracle runs each invocation on
// a fresh Exec, the way Batch starts every invocation from zeroed
// registers.
type Exec struct {
	In      [MaxInputs]geom.Vec4
	Out     [MaxOutputs]geom.Vec4
	Consts  []geom.Vec4
	Sampler Sampler
	Counts  Counts

	temps [MaxTemps]geom.Vec4
}

func (e *Exec) read(s Src) geom.Vec4 {
	var reg geom.Vec4
	switch s.File {
	case FileTemp:
		reg = e.temps[s.Idx]
	case FileInput:
		reg = e.In[s.Idx]
	case FileConst:
		if int(s.Idx) < len(e.Consts) {
			reg = e.Consts[s.Idx]
		}
	}
	out := geom.Vec4{
		X: reg.Comp(int(s.Swz[0])),
		Y: reg.Comp(int(s.Swz[1])),
		Z: reg.Comp(int(s.Swz[2])),
		W: reg.Comp(int(s.Swz[3])),
	}
	if s.Neg {
		out = out.Scale(-1)
	}
	return out
}

func (e *Exec) write(d Dst, v geom.Vec4) {
	var reg *geom.Vec4
	if d.File == FileOutput {
		reg = &e.Out[d.Idx]
	} else {
		reg = &e.temps[d.Idx]
	}
	mask := d.Mask
	if mask == 0 || mask == MaskXYZW {
		*reg = v
		return
	}
	if mask&MaskX != 0 {
		reg.X = v.X
	}
	if mask&MaskY != 0 {
		reg.Y = v.Y
	}
	if mask&MaskZ != 0 {
		reg.Z = v.Z
	}
	if mask&MaskW != 0 {
		reg.W = v.W
	}
}

func splat(v float32) geom.Vec4 { return geom.Vec4{X: v, Y: v, Z: v, W: v} }

// Run executes p against the current inputs/constants. The temporaries are
// zeroed first so invocations are independent and deterministic.
func (e *Exec) Run(p *Program) {
	e.temps = [MaxTemps]geom.Vec4{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		a := e.read(in.Src[0])
		var b, c geom.Vec4
		if nsrc[in.Op] > 1 {
			b = e.read(in.Src[1])
		}
		if nsrc[in.Op] > 2 {
			c = e.read(in.Src[2])
		}
		var r geom.Vec4
		switch in.Op {
		case OpMov:
			r = a
		case OpAdd:
			r = a.Add(b)
		case OpSub:
			r = a.Sub(b)
		case OpMul:
			r = a.Mul(b)
		case OpMad:
			r = a.Mul(b).Add(c)
		case OpDP3:
			r = splat(a.Dot3(b))
		case OpDP4:
			r = splat(a.Dot(b))
		case OpMin:
			r = geom.Vec4{X: minf(a.X, b.X), Y: minf(a.Y, b.Y), Z: minf(a.Z, b.Z), W: minf(a.W, b.W)}
		case OpMax:
			r = geom.Vec4{X: maxf(a.X, b.X), Y: maxf(a.Y, b.Y), Z: maxf(a.Z, b.Z), W: maxf(a.W, b.W)}
		case OpRcp:
			r = splat(rcp(a.X))
		case OpRsq:
			r = splat(rsq(a.X))
		case OpFrc:
			r = geom.Vec4{X: frc(a.X), Y: frc(a.Y), Z: frc(a.Z), W: frc(a.W)}
		case OpFlr:
			r = geom.Vec4{X: flr(a.X), Y: flr(a.Y), Z: flr(a.Z), W: flr(a.W)}
		case OpSat:
			r = a.Clamp01()
		case OpCmp:
			r = geom.Vec4{X: cmp(a.X, b.X, c.X), Y: cmp(a.Y, b.Y, c.Y), Z: cmp(a.Z, b.Z, c.Z), W: cmp(a.W, b.W, c.W)}
		case OpTex:
			r = e.Sampler.Sample(int(in.TexUnit), a.X, a.Y)
			e.Counts.TexSamples++
		}
		e.write(in.Dst, r)
	}
	e.Counts.Instructions += uint64(len(p.Instrs))
	e.Counts.Invocations++
}
