// Package api defines the command-stream model the simulated GPU consumes:
// pipeline-state commands, uniform ("scene constant") updates, texture and
// shader uploads, and drawcalls carrying vertex attributes — the same
// abstraction level as the OpenGL ES traces Teapot records for the paper
// (Section IV-A). The tile-input bitstream that Rendering Elimination signs
// (Section III-E) is defined over these commands.
package api

import (
	"errors"
	"fmt"

	"rendelim/internal/geom"
	"rendelim/internal/shader"
	"rendelim/internal/texture"
)

// ProgramID references a shader program registered with the trace.
type ProgramID uint8

// TextureID references a texture registered with the trace.
type TextureID uint8

// MaxTexUnits is the number of bindable texture units.
const MaxTexUnits = texUnits

const texUnits = 4

// MaxVertexAttrs bounds the vec4 attributes per vertex (position included).
const MaxVertexAttrs = 4

// SignedUniforms is the number of uniform vec4 registers whose values form a
// drawcall's "scene constants" for signing and shading (c0..c7 per the
// conventions in internal/shader).
const SignedUniforms = 8

// BlendMode selects the blending function.
type BlendMode uint8

// Blend modes.
const (
	BlendNone  BlendMode = iota // overwrite
	BlendAlpha                  // src.a * src + (1-src.a) * dst
)

// Command is one element of a frame's command stream.
type Command interface{ isCommand() }

// SetPipeline binds shader programs, textures and fixed-function state. In
// GL terms it bundles glUseProgram, glBindTexture and depth/blend state.
type SetPipeline struct {
	VS, FS     ProgramID
	Tex        [MaxTexUnits]TextureID
	Blend      BlendMode
	DepthTest  bool
	DepthWrite bool
	CullBack   bool
}

// SetUniforms updates Values starting at uniform register First. This is the
// "commands that define constants" of Section III-E; its payload is part of
// the tile-input bitstream.
type SetUniforms struct {
	First  int
	Values []geom.Vec4
}

// Draw submits a triangle list. Data holds the interleaved vertex
// attributes: NumAttrs vec4s per vertex, attribute 0 being the position
// (x, y, z, 1 in object space).
//
// Non-indexed draws (Indices == nil) require len(Data) to be a multiple of
// 3*NumAttrs. Indexed draws (glDrawElements-style) assemble triangles from
// Indices into the shared vertex array; each unique vertex is shaded once,
// the usual post-transform reuse of real GPUs.
type Draw struct {
	NumAttrs int
	Data     []geom.Vec4
	Indices  []uint16
}

// UploadProgram models glShaderSource/glLinkProgram-class calls. The driver
// registers them and disables Rendering Elimination for the frame (Section
// III-E).
type UploadProgram struct {
	ID      ProgramID
	Program *shader.Program
}

// UploadTexture models glTexImage2D-class calls; also an RE-disable trigger.
type UploadTexture struct {
	ID   TextureID
	Spec TextureSpec
}

// SetRenderTargets models binding multiple render targets; RE is disabled
// while N > 1 (Section III-E).
type SetRenderTargets struct {
	N int
}

func (SetPipeline) isCommand()      {}
func (SetUniforms) isCommand()      {}
func (Draw) isCommand()             {}
func (UploadProgram) isCommand()    {}
func (UploadTexture) isCommand()    {}
func (SetRenderTargets) isCommand() {}

// VertexCount returns the number of unique vertices in the drawcall (each
// is fetched and shaded once).
func (d Draw) VertexCount() int {
	if d.NumAttrs <= 0 {
		return 0
	}
	return len(d.Data) / d.NumAttrs
}

// TriangleCount returns the number of assembled triangles.
func (d Draw) TriangleCount() int {
	if d.Indices != nil {
		return len(d.Indices) / 3
	}
	return d.VertexCount() / 3
}

// TriVertexIndex returns the vertex-array index of corner k (0..2) of
// triangle tri.
func (d Draw) TriVertexIndex(tri, k int) int {
	if d.Indices != nil {
		return int(d.Indices[tri*3+k])
	}
	return tri*3 + k
}

// Validate checks the drawcall's shape.
func (d Draw) Validate() error {
	if d.NumAttrs < 1 || d.NumAttrs > MaxVertexAttrs {
		return fmt.Errorf("draw: NumAttrs %d out of range", d.NumAttrs)
	}
	if len(d.Data)%d.NumAttrs != 0 {
		return fmt.Errorf("draw: %d vec4s is not whole vertices of %d attrs", len(d.Data), d.NumAttrs)
	}
	if d.Indices == nil {
		if len(d.Data)%(3*d.NumAttrs) != 0 {
			return fmt.Errorf("draw: %d vec4s is not whole triangles of %d attrs", len(d.Data), d.NumAttrs)
		}
		return nil
	}
	if len(d.Indices)%3 != 0 {
		return fmt.Errorf("draw: %d indices is not whole triangles", len(d.Indices))
	}
	nv := d.VertexCount()
	for i, idx := range d.Indices {
		if int(idx) >= nv {
			return fmt.Errorf("draw: index %d at %d out of range (%d vertices)", idx, i, nv)
		}
	}
	return nil
}

// Frame is one frame's command stream; the implicit swap happens at the end.
type Frame struct {
	Commands []Command
}

// TextureKind selects a procedural texture generator.
type TextureKind uint8

// Texture kinds.
const (
	TexChecker TextureKind = iota
	TexGradient
	TexNoise
	TexDisc
)

// TextureSpec is a compact, reproducible description of a texture, so traces
// carry parameters instead of pixels.
type TextureSpec struct {
	Kind   TextureKind
	W, H   int
	Cell   int
	Seed   uint64
	A, B   geom.Vec4
	Amp    float32
	Filter texture.Filter
}

// validate checks that the texture has at least one texel in each
// dimension; Build panics otherwise.
func (s TextureSpec) validate() error {
	if s.W < 1 || s.H < 1 {
		return fmt.Errorf("texture: bad size %dx%d", s.W, s.H)
	}
	return nil
}

// Build synthesizes the texture.
func (s TextureSpec) Build(id int) *texture.Texture {
	t := texture.New(id, s.W, s.H)
	t.Filter = s.Filter
	switch s.Kind {
	case TexChecker:
		texture.FillChecker(t, s.Cell, s.A, s.B)
	case TexGradient:
		texture.FillGradient(t, s.A, s.B)
	case TexNoise:
		texture.FillNoise(t, s.Seed, s.Cell, s.A, s.Amp)
	case TexDisc:
		texture.FillDisc(t, s.A, s.B)
	}
	return t
}

// Trace is a fully self-contained recorded workload: shader and texture
// registries plus per-frame command streams.
type Trace struct {
	Name       string
	Width      int
	Height     int
	ClearColor geom.Vec4
	Programs   []*shader.Program
	Textures   []TextureSpec
	Frames     []Frame
}

// Validate checks the whole trace for referential integrity. A draw may
// bind only programs and textures that the simulator's tables hold at that
// command: the registries, plus every upload before it. The binding starts
// as the reset-time one, every id 0, and persists across frames.
func (t *Trace) Validate() error {
	if t.Width <= 0 || t.Height <= 0 {
		return fmt.Errorf("trace %q: bad dimensions %dx%d", t.Name, t.Width, t.Height)
	}
	for i, p := range t.Programs {
		if err := validateProgram(p); err != nil {
			return fmt.Errorf("trace %q program %d: %w", t.Name, i, err)
		}
	}
	for i, spec := range t.Textures {
		if err := spec.validate(); err != nil {
			return fmt.Errorf("trace %q texture %d: %w", t.Name, i, err)
		}
	}
	// The tables so far, indexed by the uint8 ids.
	var progs [256]*shader.Program
	var texs [256]bool
	copy(progs[:], t.Programs)
	for i := 0; i < len(t.Textures) && i < len(texs); i++ {
		texs[i] = true
	}
	// The binding, and whether a draw has checked it since it or the
	// tables last changed.
	var bound SetPipeline
	checked := false
	for fi, f := range t.Frames {
		for ci, cmd := range f.Commands {
			switch c := cmd.(type) {
			case SetPipeline:
				if int(c.VS) >= len(t.Programs) || int(c.FS) >= len(t.Programs) {
					return fmt.Errorf("trace %q frame %d cmd %d: program id out of range", t.Name, fi, ci)
				}
				for _, tex := range c.Tex {
					if int(tex) >= len(t.Textures) {
						return fmt.Errorf("trace %q frame %d cmd %d: texture id %d out of range", t.Name, fi, ci, tex)
					}
				}
				bound, checked = c, false
			case Draw:
				if err := c.Validate(); err != nil {
					return fmt.Errorf("trace %q frame %d cmd %d: %w", t.Name, fi, ci, err)
				}
				if !checked {
					if err := bound.check(&progs, &texs); err != nil {
						return fmt.Errorf("trace %q frame %d cmd %d: %w", t.Name, fi, ci, err)
					}
					checked = true
				}
			case SetUniforms:
				if c.First < 0 || c.First+len(c.Values) > shader.MaxConsts {
					return fmt.Errorf("trace %q frame %d cmd %d: uniform range [%d,%d) out of bounds",
						t.Name, fi, ci, c.First, c.First+len(c.Values))
				}
			case SetRenderTargets:
				if c.N < 1 {
					return fmt.Errorf("trace %q frame %d cmd %d: render targets %d", t.Name, fi, ci, c.N)
				}
			case UploadProgram:
				if err := validateProgram(c.Program); err != nil {
					return fmt.Errorf("trace %q frame %d cmd %d: %w", t.Name, fi, ci, err)
				}
				progs[c.ID], checked = c.Program, false
			case UploadTexture:
				if err := c.Spec.validate(); err != nil {
					return fmt.Errorf("trace %q frame %d cmd %d: %w", t.Name, fi, ci, err)
				}
				texs[c.ID], checked = true, false
			}
		}
	}
	return nil
}

// check rejects a binding that a draw cannot run under: a program or
// texture id absent from the tables, or a vertex program that samples,
// since vertex shading has no texture sampler.
func (p SetPipeline) check(progs *[256]*shader.Program, texs *[256]bool) error {
	for _, id := range [...]ProgramID{p.VS, p.FS} {
		if progs[id] == nil {
			return fmt.Errorf("draw binds program %d, which no registry or earlier upload defines", id)
		}
	}
	for _, in := range progs[p.VS].Instrs {
		if in.Op == shader.OpTex {
			return fmt.Errorf("draw binds program %d, which samples a texture, as its vertex shader", p.VS)
		}
	}
	for _, id := range p.Tex {
		if !texs[id] {
			return fmt.Errorf("draw binds texture %d, which no registry or earlier upload defines", id)
		}
	}
	return nil
}

// validateProgram checks a registry or uploaded program.
func validateProgram(p *shader.Program) error {
	if p == nil {
		return errors.New("nil program")
	}
	return p.Validate()
}
