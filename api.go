package rendelim

import (
	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/shader"
	"rendelim/internal/workload"
)

// Command-stream surface: everything needed to author custom traces against
// the simulator without touching internal packages. See examples/spritegame
// and examples/fpsgame for end-to-end uses.
type (
	// Frame is one frame's command stream.
	Frame = api.Frame
	// Command is a command-stream element.
	Command = api.Command
	// SetPipeline binds shaders, textures and fixed-function state.
	SetPipeline = api.SetPipeline
	// SetUniforms updates scene constants (part of the signed tile input).
	SetUniforms = api.SetUniforms
	// Draw submits a triangle list of interleaved vec4 attributes.
	Draw = api.Draw
	// UploadTexture models glTexImage2D (disables RE for the frame).
	UploadTexture = api.UploadTexture
	// UploadProgram models shader source upload (disables RE for the frame).
	UploadProgram = api.UploadProgram
	// SetRenderTargets switches MRT mode (RE disabled while >1).
	SetRenderTargets = api.SetRenderTargets
	// TextureSpec describes a procedural texture.
	TextureSpec = api.TextureSpec
	// Program is a shader program for the vec4 bytecode VM.
	Program = shader.Program
	// ProgramID and TextureID reference trace registries.
	ProgramID = api.ProgramID
	// TextureID references a texture registered with the trace.
	TextureID = api.TextureID

	// Vec3 and Vec4 are float32 vectors; Mat4 is a row-major 4x4 matrix.
	Vec3 = geom.Vec3
	Vec4 = geom.Vec4
	// Mat4 is a row-major 4x4 matrix.
	Mat4 = geom.Mat4
)

// Blend modes for SetPipeline.
const (
	BlendNone  = api.BlendNone
	BlendAlpha = api.BlendAlpha
)

// Texture kinds for TextureSpec.
const (
	TexChecker  = api.TexChecker
	TexGradient = api.TexGradient
	TexNoise    = api.TexNoise
	TexDisc     = api.TexDisc
)

// V3 and V4 construct vectors.
func V3(x, y, z float32) Vec3 { return geom.V3(x, y, z) }

// V4 constructs a Vec4.
func V4(x, y, z, w float32) Vec4 { return geom.V4(x, y, z, w) }

// Ortho, Perspective and LookAt build the usual camera matrices.
func Ortho(l, r, b, t, n, f float32) Mat4 { return geom.Ortho(l, r, b, t, n, f) }

// Perspective builds a GL-style perspective projection.
func Perspective(fovY, aspect, near, far float32) Mat4 {
	return geom.Perspective(fovY, aspect, near, far)
}

// LookAt builds a right-handed view matrix.
func LookAt(eye, center, up Vec3) Mat4 { return geom.LookAt(eye, center, up) }

// MVPUniforms returns the SetUniforms command uploading m to the
// conventional c0..c3 registers read by the standard vertex shader.
func MVPUniforms(m Mat4) SetUniforms {
	return SetUniforms{First: 0, Values: []Vec4{m.Row(0), m.Row(1), m.Row(2), m.Row(3)}}
}

// Standard shader programs (the registry the synthetic suite uses):
// index 0 is the transform vertex shader, the rest are fragment shaders.
const (
	ProgTransformVS = workload.ProgTransformVS
	ProgFlatFS      = workload.ProgFlatFS
	ProgVColorFS    = workload.ProgVColorFS
	ProgTexFS       = workload.ProgTexFS
	ProgLambertFS   = workload.ProgLambertFS
)

// StandardPrograms returns fresh copies of the standard program registry for
// embedding in a custom trace.
func StandardPrograms() []*Program { return workload.StandardPrograms() }

// QuadVerts appends the two triangles of an axis-aligned quad to data,
// using the standard 3-attribute layout (position, color, uv), and returns
// the extended slice. Convenience for hand-built traces.
func QuadVerts(data []Vec4, x, y, w, h, z float32, color Vec4) []Vec4 {
	p00 := V4(x, y, z, 1)
	p10 := V4(x+w, y, z, 1)
	p01 := V4(x, y+h, z, 1)
	p11 := V4(x+w, y+h, z, 1)
	uv00, uv10 := V4(0, 0, 0, 0), V4(1, 0, 0, 0)
	uv01, uv11 := V4(0, 1, 0, 0), V4(1, 1, 0, 0)
	data = append(data, p00, color, uv00, p10, color, uv10, p11, color, uv11)
	data = append(data, p00, color, uv00, p11, color, uv11, p01, color, uv01)
	return data
}
