package workload

import (
	"math"

	"rendelim/internal/api"
	"rendelim/internal/geom"
)

// frameBuilder assembles one frame's command stream with small-sprite
// batching. 2D sprites are CPU-transformed into vertex positions (the way
// mobile sprite batchers actually submit geometry), so animation shows up
// as changed vertex attributes exactly where the sprite is — the locality
// Rendering Elimination exploits. 3D objects instead carry their combined
// model-view-projection in the drawcall's constants.
type frameBuilder struct {
	cmds  []api.Command
	batch []geom.Vec4 // pending vertex data (3 vec4 attrs per vertex)
	index []uint16    // pending triangle indices into the batch
	pipe  api.SetPipeline
}

func newFrame() *frameBuilder { return &frameBuilder{} }

// setPipeline flushes the batch and switches pipeline state.
func (b *frameBuilder) setPipeline(p api.SetPipeline) {
	b.flush()
	b.pipe = p
	b.cmds = append(b.cmds, p)
}

// setUniforms flushes the batch and updates constants.
func (b *frameBuilder) setUniforms(first int, vals ...geom.Vec4) {
	b.flush()
	b.cmds = append(b.cmds, api.SetUniforms{First: first, Values: vals})
}

// setMVP uploads a matrix to the conventional c0..c3 registers.
func (b *frameBuilder) setMVP(m geom.Mat4) {
	b.setUniforms(0, m.Row(0), m.Row(1), m.Row(2), m.Row(3))
}

// vertex appends one unique vertex (pos, colorOrNormal, uv) and returns its
// index within the pending batch.
func (b *frameBuilder) vertex(pos geom.Vec4, cn, uv geom.Vec4) uint16 {
	idx := uint16(len(b.batch) / 3)
	b.batch = append(b.batch, pos, cn, uv)
	return idx
}

// emit appends one indexed triangle.
func (b *frameBuilder) emit(i0, i1, i2 uint16) {
	b.index = append(b.index, i0, i1, i2)
}

// quad emits an indexed quad (4 shared vertices, 2 triangles) from explicit
// corners — how sprite batchers actually submit geometry.
func (b *frameBuilder) quad(p00, p10, p11, p01 geom.Vec4, cn geom.Vec4, uv00, uv10, uv11, uv01 geom.Vec4) {
	i00 := b.vertex(p00, cn, uv00)
	i10 := b.vertex(p10, cn, uv10)
	i11 := b.vertex(p11, cn, uv11)
	i01 := b.vertex(p01, cn, uv01)
	b.emit(i00, i10, i11)
	b.emit(i00, i11, i01)
}

// quad2D appends an axis-aligned quad at depth z covering [x,x+w]x[y,y+h]
// in world units, with full-texture UVs and a per-vertex color.
func (b *frameBuilder) quad2D(x, y, w, h, z float32, color geom.Vec4) {
	b.quadUV(x, y, w, h, z, color, 0, 0, 1, 1)
}

// quadUV is quad2D with explicit texture coordinates (for scrolling UVs).
func (b *frameBuilder) quadUV(x, y, w, h, z float32, color geom.Vec4, u0, v0, u1, v1 float32) {
	b.quad(
		geom.V4(x, y, z, 1), geom.V4(x+w, y, z, 1), geom.V4(x+w, y+h, z, 1), geom.V4(x, y+h, z, 1),
		color,
		geom.V4(u0, v0, 0, 0), geom.V4(u1, v0, 0, 0), geom.V4(u1, v1, 0, 0), geom.V4(u0, v1, 0, 0))
}

// flush emits the pending batch as one indexed drawcall.
func (b *frameBuilder) flush() {
	if len(b.batch) == 0 {
		return
	}
	data := make([]geom.Vec4, len(b.batch))
	copy(data, b.batch)
	idx := make([]uint16, len(b.index))
	copy(idx, b.index)
	b.cmds = append(b.cmds, api.Draw{NumAttrs: 3, Data: data, Indices: idx})
	b.batch = b.batch[:0]
	b.index = b.index[:0]
}

// done finalizes the frame.
func (b *frameBuilder) done() api.Frame {
	b.flush()
	return api.Frame{Commands: b.cmds}
}

// box3D appends the 12 triangles of an axis-aligned box centered at c with
// half-extents e, with face normals in the color/normal attribute.
func (b *frameBuilder) box3D(c, e geom.Vec3) {
	faces := [6]struct {
		n    geom.Vec3
		a, d geom.Vec3 // two in-face axes
	}{
		{geom.V3(1, 0, 0), geom.V3(0, 1, 0), geom.V3(0, 0, 1)},
		{geom.V3(-1, 0, 0), geom.V3(0, 0, 1), geom.V3(0, 1, 0)},
		{geom.V3(0, 1, 0), geom.V3(0, 0, 1), geom.V3(1, 0, 0)},
		{geom.V3(0, -1, 0), geom.V3(1, 0, 0), geom.V3(0, 0, 1)},
		{geom.V3(0, 0, 1), geom.V3(1, 0, 0), geom.V3(0, 1, 0)},
		{geom.V3(0, 0, -1), geom.V3(0, 1, 0), geom.V3(1, 0, 0)},
	}
	uv := [4]geom.Vec4{
		geom.V4(0, 0, 0, 0), geom.V4(1, 0, 0, 0), geom.V4(1, 1, 0, 0), geom.V4(0, 1, 0, 0),
	}
	for _, f := range faces {
		center := c.Add(geom.V3(f.n.X*e.X, f.n.Y*e.Y, f.n.Z*e.Z))
		ax := geom.V3(f.a.X*e.X, f.a.Y*e.Y, f.a.Z*e.Z)
		dx := geom.V3(f.d.X*e.X, f.d.Y*e.Y, f.d.Z*e.Z)
		n4 := f.n.Vec4(0)
		p := [4]geom.Vec4{
			center.Sub(ax).Sub(dx).Vec4(1),
			center.Add(ax).Sub(dx).Vec4(1),
			center.Add(ax).Add(dx).Vec4(1),
			center.Sub(ax).Add(dx).Vec4(1),
		}
		b.quad(p[0], p[1], p[2], p[3], n4, uv[0], uv[1], uv[2], uv[3])
	}
}

// groundPlane appends a large textured quad at height y with normal +Y.
func (b *frameBuilder) groundPlane(y, half float32, uvRepeat float32) {
	n := geom.V4(0, 1, 0, 0)
	b.quad(
		geom.V4(-half, y, -half, 1), geom.V4(half, y, -half, 1),
		geom.V4(half, y, half, 1), geom.V4(-half, y, half, 1),
		n,
		geom.V4(0, 0, 0, 0), geom.V4(uvRepeat, 0, 0, 0),
		geom.V4(uvRepeat, uvRepeat, 0, 0), geom.V4(0, uvRepeat, 0, 0))
}

// Common pipeline presets.

func pipe2D(fs api.ProgramID, tex api.TextureID, blend api.BlendMode) api.SetPipeline {
	return api.SetPipeline{
		VS: ProgTransformVS, FS: fs,
		Tex:       [api.MaxTexUnits]api.TextureID{tex},
		Blend:     blend,
		DepthTest: false, DepthWrite: false, CullBack: false,
	}
}

func pipe3D(fs api.ProgramID, tex api.TextureID) api.SetPipeline {
	return api.SetPipeline{
		VS: ProgTransformVS, FS: fs,
		Tex:       [api.MaxTexUnits]api.TextureID{tex},
		Blend:     api.BlendNone,
		DepthTest: true, DepthWrite: true, CullBack: false,
	}
}

// ortho2D returns the standard pixel-space projection for a screen.
func ortho2D(w, h int) geom.Mat4 {
	return geom.Ortho(0, float32(w), 0, float32(h), -10, 10)
}

func sinf(x float64) float32 { return float32(math.Sin(x)) }
func cosf(x float64) float32 { return float32(math.Cos(x)) }

// stepPath returns a deterministic position along a looping path, quantized
// to whole pixels so that a pausing object reproduces bit-identical
// geometry.
func stepPath(f int, period int, ax, ay, bx, by float32) (x, y float32) {
	t := float64(f%period) / float64(period)
	x = float32(math.Round(float64(ax + (bx-ax)*float32(t))))
	y = float32(math.Round(float64(ay + (by-ay)*float32(0.5-0.5*math.Cos(2*math.Pi*t)))))
	return x, y
}
