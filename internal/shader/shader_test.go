package shader

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"rendelim/internal/geom"
)

type fixedSampler struct{ v geom.Vec4 }

func (s fixedSampler) Sample(unit int, u, v float32) geom.Vec4 {
	return s.v.Add(geom.V4(float32(unit), u, v, 0))
}

// result is what one invocation leaves behind: its outputs and the counts
// of running it once.
type result struct {
	Out    [MaxOutputs]geom.Vec4
	Counts Counts
}

// run executes the invocation setup describes on p three ways — the scalar
// reference, and Batch with that invocation in 1 and in Lanes lanes — and
// requires every lane to match the reference bit for bit and the counts to
// scale with the lanes. It returns the single-lane Batch result.
func run(t *testing.T, p *Program, setup func(*Exec)) result {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	sampler := fixedSampler{geom.V4(0.5, 0.5, 0.5, 1)}
	ref := &Exec{Sampler: sampler}
	if setup != nil {
		setup(ref)
	}
	in := ref.In
	ref.Run(p)

	var got result
	for _, n := range []int{1, Lanes} {
		b := &Batch{Consts: ref.Consts, Sampler: sampler}
		for i := 0; i < n; i++ {
			b.Push(0, in[:])
		}
		b.Run(p)
		for lane := 0; lane < n; lane++ {
			for r := 0; r < MaxOutputs; r++ {
				if o := b.Out(lane, r); !sameBits(o, ref.Out[r]) {
					t.Fatalf("N=%d lane %d o%d = %v, reference %v", n, lane, r, o, ref.Out[r])
				}
			}
		}
		want := Counts{
			Instructions: ref.Counts.Instructions * uint64(n),
			TexSamples:   ref.Counts.TexSamples * uint64(n),
			Invocations:  ref.Counts.Invocations * uint64(n),
		}
		if b.Counts != want {
			t.Fatalf("N=%d counts = %+v, want %+v", n, b.Counts, want)
		}
		if n == 1 {
			for r := range got.Out {
				got.Out[r] = b.Out(0, r)
			}
			got.Counts = b.Counts
		}
	}
	return got
}

// sameBits compares two vectors bit for bit, so signed zeros and infinities
// count, except that any NaN matches any NaN: Go fixes no NaN payload, and
// when both operands of an add are NaN the compiler's choice of operand
// order decides which one the sum returns.
func sameBits(a, b geom.Vec4) bool {
	return sameFloat(a.X, b.X) && sameFloat(a.Y, b.Y) && sameFloat(a.Z, b.Z) && sameFloat(a.W, b.W)
}

func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

func TestOpSemantics(t *testing.T) {
	a := geom.V4(1, -2, 3, 0.5)
	b := geom.V4(2, 2, -1, 4)
	c := geom.V4(10, 20, 30, 40)
	cases := []struct {
		op   Op
		want geom.Vec4
	}{
		{OpMov, a},
		{OpAdd, a.Add(b)},
		{OpSub, a.Sub(b)},
		{OpMul, a.Mul(b)},
		{OpMad, a.Mul(b).Add(c)},
		{OpDP3, splat(a.Dot3(b))},
		{OpDP4, splat(a.Dot(b))},
		{OpMin, geom.V4(1, -2, -1, 0.5)},
		{OpMax, geom.V4(2, 2, 3, 4)},
		{OpRcp, splat(1)},
		{OpRsq, splat(1)},
		{OpFrc, geom.V4(0, 0, 0, 0.5)},
		{OpFlr, geom.V4(1, -2, 3, 0)},
		{OpSat, geom.V4(1, 0, 1, 0.5)},
		{OpCmp, geom.V4(2, 20, -1, 4)},
	}
	for _, tc := range cases {
		p := &Program{Name: "t", Instrs: []Instr{
			{Op: tc.op, Dst: OD(0), Src: [3]Src{V(0), V(1), V(2)}},
		}}
		e := run(t, p, func(e *Exec) { e.In[0], e.In[1], e.In[2] = a, b, c })
		if e.Out[0] != tc.want {
			t.Errorf("%v: got %v, want %v", tc.op, e.Out[0], tc.want)
		}
	}
}

func TestOpTexCountsSamples(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpTex, Dst: OD(0), Src: [3]Src{V(0)}, TexUnit: 2},
	}}
	e := run(t, p, func(e *Exec) { e.In[0] = geom.V4(0.25, 0.75, 0, 0) })
	want := geom.V4(0.5+2, 0.5+0.25, 0.5+0.75, 1)
	if e.Out[0] != want {
		t.Fatalf("tex result %v, want %v", e.Out[0], want)
	}
	if e.Counts.TexSamples != 1 || e.Counts.Instructions != 1 || e.Counts.Invocations != 1 {
		t.Fatalf("counts = %+v", e.Counts)
	}
}

func TestSwizzleAndNegate(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpMov, Dst: OD(0), Src: [3]Src{V(0).Swizzled(Swz(3, 2, 1, 0)).Negated()}},
	}}
	e := run(t, p, func(e *Exec) { e.In[0] = geom.V4(1, 2, 3, 4) })
	if e.Out[0] != geom.V4(-4, -3, -2, -1) {
		t.Fatalf("swizzle+neg = %v", e.Out[0])
	}
}

func TestWriteMask(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpMov, Dst: RD(0), Src: [3]Src{V(0)}},
		{Op: OpMov, Dst: RD(0).Masked(MaskY | MaskW), Src: [3]Src{V(1)}},
		{Op: OpMov, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
	e := run(t, p, func(e *Exec) {
		e.In[0] = geom.V4(1, 2, 3, 4)
		e.In[1] = geom.V4(9, 9, 9, 9)
	})
	if e.Out[0] != geom.V4(1, 9, 3, 9) {
		t.Fatalf("masked write = %v", e.Out[0])
	}
}

func TestRcpRsqSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	cases := []struct {
		op   Op
		x    float32
		want float32
	}{
		{OpRcp, 0, inf},
		{OpRcp, negZero, inf},
		{OpRcp, inf, 0},
		{OpRsq, 0, inf},
		{OpRsq, -4, 0.5}, // abs semantics
		{OpRsq, 4, 0.5},
	}
	for _, tc := range cases {
		p := &Program{Name: "t", Instrs: []Instr{{Op: tc.op, Dst: OD(0), Src: [3]Src{V(0)}}}}
		e := run(t, p, func(e *Exec) { e.In[0] = geom.V4(tc.x, 7, 7, 7) })
		if e.Out[0] != splat(tc.want) {
			t.Errorf("%v(%v) = %v, want %v", tc.op, tc.x, e.Out[0], tc.want)
		}
	}
}

func TestTempsZeroedBetweenRuns(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpAdd, Dst: RD(0), Src: [3]Src{R(0), V(0)}},
		{Op: OpMov, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
	b := &Batch{}
	for run := 0; run < 2; run++ {
		for i := 0; i < Lanes; i++ {
			b.Push(0, []geom.Vec4{geom.V4(1, 1, 1, 1)})
		}
		b.Run(p)
		for lane := 0; lane < Lanes; lane++ {
			if got := b.Out(lane, 0); got != geom.V4(1, 1, 1, 1) {
				t.Fatalf("run %d lane %d: temps leaked across invocations: %v", run, lane, got)
			}
		}
	}
}

// Outputs a program leaves unwritten, and inputs a Push did not set, read
// as zero — whatever an earlier batch left behind.
func TestUnsetRegistersReadZero(t *testing.T) {
	fill := &Program{Name: "fill", Instrs: []Instr{
		{Op: OpMov, Dst: OD(0), Src: [3]Src{V(0)}},
		{Op: OpMov, Dst: OD(1), Src: [3]Src{V(1)}},
		{Op: OpMov, Dst: OD(2), Src: [3]Src{V(2)}},
	}}
	partial := &Program{Name: "partial", Instrs: []Instr{
		{Op: OpMov, Dst: OD(0).Masked(MaskX | MaskY), Src: [3]Src{V(1)}},
		{Op: OpMov, Dst: OD(1), Src: [3]Src{V(2)}},
	}}
	ones := []geom.Vec4{geom.V4(1, 1, 1, 1), geom.V4(2, 2, 2, 2), geom.V4(3, 3, 3, 3)}

	b := &Batch{}
	for i := 0; i < Lanes; i++ {
		b.Push(0, ones)
	}
	b.Run(fill)
	for i := 0; i < 3; i++ {
		b.Push(1, ones[1:2]) // v1 only: v0 and v2 must read as zero
	}
	b.Run(partial)
	for lane := 0; lane < 3; lane++ {
		if got := b.Out(lane, 0); got != geom.V4(2, 2, 0, 0) {
			t.Errorf("lane %d: o0 = %v, want unwritten components zero", lane, got)
		}
		if got := b.Out(lane, 1); got != (geom.Vec4{}) {
			t.Errorf("lane %d: o1 = %v, want the unset input v2 to read zero", lane, got)
		}
		if got := b.Out(lane, 2); got != (geom.Vec4{}) {
			t.Errorf("lane %d: o2 = %v, want the unwritten output zero", lane, got)
		}
	}
}

// A program with two tex instructions runs one invocation at a time, so the
// sampler sees each invocation's samples together, in invocation order.
func TestTwoTexProgramSamplesInInvocationOrder(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpTex, Dst: RD(0), Src: [3]Src{V(0)}, TexUnit: 0},
		{Op: OpTex, Dst: RD(1), Src: [3]Src{V(1)}, TexUnit: 1},
		{Op: OpAdd, Dst: OD(0), Src: [3]Src{R(0), R(1)}},
	}}
	s := &logSampler{}
	b := &Batch{Sampler: s}
	for i := 0; i < 3; i++ {
		b.Push(0, []geom.Vec4{geom.V4(float32(i), 0, 0, 0), geom.V4(float32(10+i), 0, 0, 0)})
	}
	b.Run(p)
	var units []int
	var us []float32
	for _, c := range s.calls {
		units = append(units, c.unit)
		us = append(us, math.Float32frombits(c.u))
	}
	if want := []int{0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(units, want) {
		t.Fatalf("sample units %v, want %v", units, want)
	}
	if want := []float32{0, 10, 1, 11, 2, 12}; !reflect.DeepEqual(us, want) {
		t.Fatalf("sample u %v, want %v", us, want)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	bad := []*Program{
		{Name: "badop", Instrs: []Instr{{Op: opCount, Dst: OD(0)}}},
		{Name: "baddst", Instrs: []Instr{{Op: OpMov, Dst: Dst{File: FileConst}, Src: [3]Src{V(0)}}}},
		{Name: "dstrange", Instrs: []Instr{{Op: OpMov, Dst: RD(MaxTemps), Src: [3]Src{V(0)}}}},
		{Name: "outrange", Instrs: []Instr{{Op: OpMov, Dst: OD(MaxOutputs), Src: [3]Src{V(0)}}}},
		{Name: "srcfile", Instrs: []Instr{{Op: OpMov, Dst: OD(0), Src: [3]Src{{File: FileOutput, Swz: SwzXYZW}}}}},
		{Name: "srcrange", Instrs: []Instr{{Op: OpMov, Dst: OD(0), Src: [3]Src{V(MaxInputs)}}}},
		{Name: "swz", Instrs: []Instr{{Op: OpMov, Dst: OD(0), Src: [3]Src{V(0).Swizzled(Swz(0, 1, 2, 9))}}}},
		{Name: "texunit", Instrs: []Instr{{Op: OpTex, Dst: OD(0), Src: [3]Src{V(0)}, TexUnit: MaxTexUnit}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", p.Name)
		}
	}
}

func TestStdProgramsValidateAndCount(t *testing.T) {
	for _, p := range []*Program{
		TransformVS(0), TransformVS(1), TransformVS(2),
		FlatFS(), VertexColorFS(), TexturedFS(), LambertTexFS(),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.Len() == 0 {
			t.Errorf("%s: empty program", p.Name)
		}
	}
}

func TestTransformVSTransformsPosition(t *testing.T) {
	mvp := geom.Identity() // a translation by (10, 20, 30)
	mvp[3], mvp[7], mvp[11] = 10, 20, 30
	p := TransformVS(2)
	e := run(t, p, func(e *Exec) {
		e.Consts = []geom.Vec4{mvp.Row(0), mvp.Row(1), mvp.Row(2), mvp.Row(3)}
		e.In[0] = geom.V4(1, 2, 3, 1)
		e.In[1] = geom.V4(0.1, 0.2, 0.3, 0.4)
		e.In[2] = geom.V4(0.5, 0.6, 0, 0)
	})
	if e.Out[0] != geom.V4(11, 22, 33, 1) {
		t.Fatalf("position = %v", e.Out[0])
	}
	if e.Out[1] != geom.V4(0.1, 0.2, 0.3, 0.4) || e.Out[2] != geom.V4(0.5, 0.6, 0, 0) {
		t.Fatalf("varyings = %v %v", e.Out[1], e.Out[2])
	}
}

func TestFlatFSAndTexturedFS(t *testing.T) {
	tint := geom.V4(0.5, 1, 0.25, 1)
	e := run(t, FlatFS(), func(e *Exec) {
		e.Consts = make([]geom.Vec4, 8)
		e.Consts[4] = tint
	})
	if e.Out[0] != tint {
		t.Fatalf("flat = %v", e.Out[0])
	}

	e = run(t, TexturedFS(), func(e *Exec) {
		e.Consts = make([]geom.Vec4, 8)
		e.Consts[4] = geom.V4(1, 1, 1, 1)
		e.In[2] = geom.V4(0.5, 0.5, 0, 0)
	})
	want := geom.V4(0.5, 1, 1, 1) // fixedSampler(unit 0, 0.5, 0.5) saturated
	if e.Out[0] != want {
		t.Fatalf("textured = %v, want %v", e.Out[0], want)
	}
	if e.Counts.TexSamples != 1 {
		t.Fatalf("tex samples = %d", e.Counts.TexSamples)
	}
}

func TestLambertDarkAndLit(t *testing.T) {
	consts := make([]geom.Vec4, 8)
	consts[4] = geom.V4(1, 1, 1, 1)
	consts[5] = geom.V4(0, 0, 1, 0.25) // light +z, ambient 0.25

	lit := run(t, LambertTexFS(), func(e *Exec) {
		e.Consts = consts
		e.In[1] = geom.V4(0, 0, 1, 0) // normal facing light
		e.In[2] = geom.V4(0, 0, 0, 0)
	})
	dark := run(t, LambertTexFS(), func(e *Exec) {
		e.Consts = consts
		e.In[1] = geom.V4(0, 0, -1, 0) // facing away -> ambient only
		e.In[2] = geom.V4(0, 0, 0, 0)
	})
	if lit.Out[0].X <= dark.Out[0].X {
		t.Fatalf("lit %v not brighter than dark %v", lit.Out[0], dark.Out[0])
	}
	if dark.Out[0].X == 0 {
		t.Fatal("ambient floor missing")
	}
}

// Property: the VM is a pure function of (program, inputs, consts).
func TestQuickDeterminism(t *testing.T) {
	p := LambertTexFS()
	f := func(in1, in2 [4]float32, tint [4]float32) bool {
		mk := func() geom.Vec4 {
			b := &Batch{Sampler: fixedSampler{geom.V4(0.5, 0.5, 0.5, 1)}}
			b.Consts = make([]geom.Vec4, 8)
			b.Consts[4] = geom.V4(tint[0], tint[1], tint[2], tint[3])
			b.Consts[5] = geom.V4(0.3, 0.3, 0.9, 0.2)
			b.Push(1, []geom.Vec4{
				geom.V4(in1[0], in1[1], in1[2], in1[3]),
				geom.V4(in2[0], in2[1], in2[2], in2[3]),
			})
			b.Run(p)
			return b.Out(0, 0)
		}
		return sameBits(mk(), mk())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpAndFileStrings(t *testing.T) {
	if OpMad.String() != "mad" || OpTex.String() != "tex" {
		t.Fatal("op names wrong")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op should still format")
	}
	if FileTemp.String() != "r" || FileConst.String() != "c" || File(9).String() != "?" {
		t.Fatal("file names wrong")
	}
}
