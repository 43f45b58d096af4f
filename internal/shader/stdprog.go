package shader

// Standard programs shared by the workload generator and the examples. The
// uniform register conventions are fixed so that the tile-input signature
// (which covers the uniform data, not the program text) stays meaningful
// across drawcalls:
//
//	c0..c3   model-view-projection matrix rows
//	c4       tint / material color
//	c5       light direction (xyz) and ambient strength (w)
//	c6       misc animation parameters
//
// Vertex inputs: v0 = position (xyz,1), v1 = color or normal, v2 = uv.
// Vertex outputs: o0 = clip position, o1 = color/normal varying, o2 = uv.
// Fragment inputs: v1, v2 as interpolated varyings; output o0 = color.

// TransformVS returns the canonical vertex shader: clip position = MVP * v0
// with nVaryings extra attributes (v1..) passed through to o1.. .
func TransformVS(nVaryings int) *Program {
	p := &Program{Name: "transform-vs", Instrs: []Instr{
		{Op: OpDP4, Dst: RD(0).Masked(MaskX), Src: [3]Src{C(0), V(0)}},
		{Op: OpDP4, Dst: RD(0).Masked(MaskY), Src: [3]Src{C(1), V(0)}},
		{Op: OpDP4, Dst: RD(0).Masked(MaskZ), Src: [3]Src{C(2), V(0)}},
		{Op: OpDP4, Dst: RD(0).Masked(MaskW), Src: [3]Src{C(3), V(0)}},
		{Op: OpMov, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
	for i := 0; i < nVaryings; i++ {
		p.Instrs = append(p.Instrs, Instr{Op: OpMov, Dst: OD(uint8(i + 1)), Src: [3]Src{V(uint8(i + 1))}})
	}
	return p
}

// FlatFS returns a fragment shader emitting the constant color in c4.
func FlatFS() *Program {
	return &Program{Name: "flat-fs", Instrs: []Instr{
		{Op: OpMov, Dst: OD(0), Src: [3]Src{C(4)}},
	}}
}

// VertexColorFS returns a fragment shader emitting the interpolated vertex
// color (varying v1) modulated by the tint c4.
func VertexColorFS() *Program {
	return &Program{Name: "vcolor-fs", Instrs: []Instr{
		{Op: OpMul, Dst: RD(0), Src: [3]Src{V(1), C(4)}},
		{Op: OpSat, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
}

// TexturedFS returns the common sprite shader: sample texture unit 0 at the
// interpolated uv (varying v2) and modulate by tint c4.
func TexturedFS() *Program {
	return &Program{Name: "tex-fs", Instrs: []Instr{
		{Op: OpTex, Dst: RD(0), Src: [3]Src{V(2)}, TexUnit: 0},
		{Op: OpMul, Dst: RD(0), Src: [3]Src{R(0), C(4)}},
		{Op: OpSat, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
}

// LambertTexFS returns the lit 3D shader: diffuse = max(N·L, ambient) with
// N in varying v1 and light in c5, applied to a texture sample and tint.
func LambertTexFS() *Program {
	return &Program{Name: "lambert-tex-fs", Instrs: []Instr{
		{Op: OpTex, Dst: RD(0), Src: [3]Src{V(2)}, TexUnit: 0},
		{Op: OpDP3, Dst: RD(1), Src: [3]Src{V(1), C(5)}},
		{Op: OpMax, Dst: RD(1), Src: [3]Src{R(1), C(5).Swizzled(Swz(3, 3, 3, 3))}},
		{Op: OpMul, Dst: RD(0), Src: [3]Src{R(0), R(1)}},
		{Op: OpMul, Dst: RD(0), Src: [3]Src{R(0), C(4)}},
		{Op: OpSat, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
}
