package api

import (
	"rendelim/internal/geom"
	"rendelim/internal/shader"
	"rendelim/internal/wire"
)

// State is the pipeline state machine: the effect of every non-draw command
// applied so far. Both the functional renderer and the Signature Unit
// front-end read it.
type State struct {
	Pipeline      SetPipeline
	Uniforms      [shader.MaxConsts]geom.Vec4
	RenderTargets int
	// UploadsThisFrame reports whether a shader/texture upload happened in
	// the current frame (an RE-disable trigger).
	UploadsThisFrame bool
}

// NewState returns the reset-time state: single render target, depth test
// and write enabled.
func NewState() *State {
	return &State{
		Pipeline:      SetPipeline{DepthTest: true, DepthWrite: true},
		RenderTargets: 1,
	}
}

// BeginFrame clears the per-frame flags.
func (s *State) BeginFrame() { s.UploadsThisFrame = false }

// Apply folds one non-draw command into the state. Draw commands do not
// change state and are ignored here.
func (s *State) Apply(cmd Command) {
	switch c := cmd.(type) {
	case SetPipeline:
		s.Pipeline = c
	case SetUniforms:
		for i, v := range c.Values {
			if c.First+i < len(s.Uniforms) {
				s.Uniforms[c.First+i] = v
			}
		}
	case SetRenderTargets:
		s.RenderTargets = c.N
	case UploadProgram, UploadTexture:
		s.UploadsThisFrame = true
	}
}

// SignedConstants returns the uniform registers visible to shaders for a
// drawcall (c0..c[SignedUniforms-1]) as a slice aliasing the state.
func (s *State) SignedConstants() []geom.Vec4 {
	return s.Uniforms[:SignedUniforms]
}

// --- Tile-input bitstream serialization (Section III-E) ---------------------
//
// The bitstream a tile's signature covers is a sequence of blocks:
//
//	constants block:  [reg index:u32][count:u32][values: count x 16 bytes]...
//	                  one record per SetUniforms command in the epoch
//	primitive block:  3 vertices x NumAttrs x 16 bytes of attribute data
//
// All scalars are little-endian; floats are serialized as their IEEE-754
// bit patterns so the encoding is total and deterministic (distinct bit
// patterns stay distinct, including -0 vs +0 and NaN payloads).

// AppendUniformRecord appends one SetUniforms record to the constants block.
func AppendUniformRecord(dst []byte, c SetUniforms) []byte {
	dst = wire.AppendU32(dst, uint32(c.First))
	dst = wire.AppendU32(dst, uint32(len(c.Values)))
	for _, v := range c.Values {
		dst = AppendVec4(dst, v)
	}
	return dst
}

// AppendPipelineRecord appends the drawcall-visible render state to the
// constants block. The paper's bitstream covers only constants and
// attributes, assuming shader/texture *bindings* are stable; signing the
// bound state as well closes the false-positive hole when an application
// rebinds an already-uploaded program, texture, blend or depth mode between
// frames — those are Command Processor outputs and genuine Raster Pipeline
// inputs. The 0xFF 0xEE marker keeps the record distinct from uniform
// headers.
func AppendPipelineRecord(dst []byte, p SetPipeline) []byte {
	return AppendPipeline(append(dst, 0xFF, 0xEE), p)
}

// AppendPrimitive appends triangle tri of drawcall d to dst: the attributes
// of its three (possibly indexed) vertices, in submission order. Indexed and
// flat submissions of the same geometry therefore sign identically.
func AppendPrimitive(dst []byte, d Draw, tri int) []byte {
	for k := 0; k < 3; k++ {
		for _, a := range d.Vertex(d.TriVertexIndex(tri, k)) {
			dst = AppendVec4(dst, a)
		}
	}
	return dst
}

// Vertex returns attribute slice of vertex v of drawcall d (NumAttrs vec4s).
func (d Draw) Vertex(v int) []geom.Vec4 {
	return d.Data[v*d.NumAttrs : (v+1)*d.NumAttrs]
}

// VertexBytes returns the per-vertex attribute footprint in bytes.
func (d Draw) VertexBytes() int { return d.NumAttrs * 16 }

// --- Shared binary codec --------------------------------------------------
//
// The trace format (internal/trace), simulator checkpoints
// (internal/gpusim) and the signature bitstream above all store vec4s and
// bound pipeline state; they encode them through this one pair each, so
// the formats cannot drift apart.

// AppendVec4 appends v as four little-endian float32 bit patterns.
func AppendVec4(b []byte, v geom.Vec4) []byte {
	b = wire.AppendF32(b, v.X)
	b = wire.AppendF32(b, v.Y)
	b = wire.AppendF32(b, v.Z)
	return wire.AppendF32(b, v.W)
}

// ReadVec4 decodes what AppendVec4 wrote.
func ReadVec4(r *wire.Reader) geom.Vec4 {
	return geom.Vec4{X: r.F32(), Y: r.F32(), Z: r.F32(), W: r.F32()}
}

// AppendPipeline appends p as one byte per field: programs, texture
// bindings, blend mode, then the depth and cull flags.
func AppendPipeline(b []byte, p SetPipeline) []byte {
	b = append(b, byte(p.VS), byte(p.FS))
	for _, t := range p.Tex {
		b = append(b, byte(t))
	}
	b = append(b, byte(p.Blend))
	b = wire.AppendBool(b, p.DepthTest)
	b = wire.AppendBool(b, p.DepthWrite)
	return wire.AppendBool(b, p.CullBack)
}

// ReadPipeline decodes what AppendPipeline wrote.
func ReadPipeline(r *wire.Reader) SetPipeline {
	var p SetPipeline
	p.VS = ProgramID(r.U8())
	p.FS = ProgramID(r.U8())
	for i := range p.Tex {
		p.Tex[i] = TextureID(r.U8())
	}
	p.Blend = BlendMode(r.U8())
	p.DepthTest = r.Bool()
	p.DepthWrite = r.Bool()
	p.CullBack = r.Bool()
	return p
}

// AppendState appends the bound pipeline, every uniform register and the
// render-target count, for simulator checkpoints. The upload flag is not
// part of it: BeginFrame clears it.
func (s *State) AppendState(b []byte) []byte {
	b = AppendPipeline(b, s.Pipeline)
	for _, v := range s.Uniforms {
		b = AppendVec4(b, v)
	}
	return wire.AppendI64(b, int64(s.RenderTargets))
}

// ReadState reads what AppendState wrote into s.
func (s *State) ReadState(r *wire.Reader) {
	s.Pipeline = ReadPipeline(r)
	for i := range s.Uniforms {
		s.Uniforms[i] = ReadVec4(r)
	}
	s.RenderTargets = int(r.I64())
}
