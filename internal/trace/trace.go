// Package trace serializes api.Trace workloads to a compact, deterministic
// binary format, making the simulator trace-driven the way Teapot is: the
// retrace tool records command streams once, and resim/reexp replay them.
// The format is versioned, little-endian, and self-contained (shader
// programs and procedural texture specs travel inside the file). It encodes
// and decodes through internal/wire, the repo's one binary codec.
package trace

import (
	"errors"
	"fmt"
	"io"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/rerr"
	"rendelim/internal/shader"
	"rendelim/internal/texture"
	"rendelim/internal/wire"
)

// Magic and version identify the format.
const (
	Magic   = "RDLM"
	Version = 1
)

// Command tags.
const (
	tagSetPipeline      = 1
	tagSetUniforms      = 2
	tagDraw             = 3
	tagUploadProgram    = 4
	tagUploadTexture    = 5
	tagSetRenderTargets = 6
)

// Count caps: input checks on a trace's shape, on top of the bytes-left
// bound every count gets from wire.Reader.Count.
const (
	maxFrames      = 1 << 20 // per trace
	maxCommands    = 1 << 22 // per frame
	maxDrawVec4s   = 1 << 26 // per draw
	maxDrawIndices = 1 << 26 // per draw
)

// Minimum encoded size of each counted element, in bytes: a count is
// checked against the bytes left at these sizes before its slice is
// allocated.
const (
	sizeProgram = 4  // u16 name length, u16 instruction count
	sizeInstr   = 17 // five bytes, then three 4-byte sources
	sizeTexSpec = 58 // kind, W, H, Cell, Seed, A, B, Amp, Filter
	sizeFrame   = 4  // u32 command count
	sizeCommand = 2  // tag and SetRenderTargets' count
	sizeVec4    = 16
	sizeIndex   = 2
)

// Encode writes tr to out in a single write.
func Encode(out io.Writer, tr *api.Trace) error {
	b := append([]byte(nil), Magic...)
	b = wire.AppendU32(b, Version)
	b = appendStr(b, tr.Name)
	b = wire.AppendU32(b, uint32(tr.Width))
	b = wire.AppendU32(b, uint32(tr.Height))
	b = api.AppendVec4(b, tr.ClearColor)

	b = wire.AppendU16(b, uint16(len(tr.Programs)))
	for _, p := range tr.Programs {
		b = appendProgram(b, p)
	}
	b = wire.AppendU16(b, uint16(len(tr.Textures)))
	for _, t := range tr.Textures {
		b = appendTexSpec(b, t)
	}
	b = wire.AppendU32(b, uint32(len(tr.Frames)))
	for i := range tr.Frames {
		cmds := tr.Frames[i].Commands
		b = wire.AppendU32(b, uint32(len(cmds)))
		for _, cmd := range cmds {
			var err error
			if b, err = appendCommand(b, cmd); err != nil {
				return err
			}
		}
	}
	_, err := out.Write(b)
	return err
}

// Decode reads a trace in full, decodes it and validates it. Every error
// wraps rerr.ErrBadTrace.
func Decode(in io.Reader) (*api.Trace, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("trace: %w: read: %v", rerr.ErrBadTrace, err)
	}
	tr, err := decode(wire.NewReader(data))
	if err == nil {
		err = tr.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w: %v", rerr.ErrBadTrace, err)
	}
	return tr, nil
}

// decode decodes one trace from r. Each slice is allocated once, at a
// length Count has checked against the bytes left, so a hostile length
// field fails as wire.ErrCorrupt instead of allocating.
func decode(r *wire.Reader) (*api.Trace, error) {
	if string(r.Raw(len(Magic))) != Magic {
		return nil, errors.New("bad magic")
	}
	if v := r.U32(); v != Version {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	tr := &api.Trace{Name: str(r), Width: int(r.U32()), Height: int(r.U32()), ClearColor: api.ReadVec4(r)}

	if n := r.Count(int(r.U16()), sizeProgram); n > 0 {
		tr.Programs = make([]*shader.Program, n)
		for i := range tr.Programs {
			tr.Programs[i] = decodeProgram(r)
		}
	}
	if n := r.Count(int(r.U16()), sizeTexSpec); n > 0 {
		tr.Textures = make([]api.TextureSpec, n)
		for i := range tr.Textures {
			tr.Textures[i] = decodeTexSpec(r)
		}
	}
	nf := int(r.U32())
	if nf > maxFrames {
		return nil, fmt.Errorf("implausible frame count %d", nf)
	}
	if nf = r.Count(nf, sizeFrame); nf > 0 {
		tr.Frames = make([]api.Frame, nf)
	}
	for i := range tr.Frames {
		nc := int(r.U32())
		if nc > maxCommands {
			return nil, fmt.Errorf("implausible command count %d", nc)
		}
		if nc = r.Count(nc, sizeCommand); nc > 0 {
			tr.Frames[i].Commands = make([]api.Command, nc)
		}
		for c := range tr.Frames[i].Commands {
			cmd, err := decodeCommand(r)
			if err != nil {
				return nil, err
			}
			tr.Frames[i].Commands[c] = cmd
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// appendStr appends a u16-length-prefixed string, truncated to fit.
func appendStr(b []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	b = wire.AppendU16(b, uint16(len(s)))
	return append(b, s...)
}

func str(r *wire.Reader) string { return string(r.Raw(int(r.U16()))) }

// vec4s decodes n vec4s; a zero count decodes as nil.
func vec4s(r *wire.Reader, n int) []geom.Vec4 {
	n = r.Count(n, sizeVec4)
	if n == 0 {
		return nil
	}
	v := make([]geom.Vec4, n)
	for i := range v {
		v[i] = api.ReadVec4(r)
	}
	return v
}

func appendProgram(b []byte, p *shader.Program) []byte {
	b = appendStr(b, p.Name)
	b = wire.AppendU16(b, uint16(len(p.Instrs)))
	for _, in := range p.Instrs {
		b = append(b, uint8(in.Op), uint8(in.Dst.File), in.Dst.Idx, in.Dst.Mask, in.TexUnit)
		for _, s := range in.Src {
			b = append(b, uint8(s.File), s.Idx, s.Swz[0]|s.Swz[1]<<2|s.Swz[2]<<4|s.Swz[3]<<6)
			b = wire.AppendBool(b, s.Neg)
		}
	}
	return b
}

func decodeProgram(r *wire.Reader) *shader.Program {
	p := &shader.Program{Name: str(r)}
	if n := r.Count(int(r.U16()), sizeInstr); n > 0 {
		p.Instrs = make([]shader.Instr, n)
		for i := range p.Instrs {
			in := &p.Instrs[i]
			in.Op = shader.Op(r.U8())
			in.Dst.File = shader.File(r.U8())
			in.Dst.Idx = r.U8()
			in.Dst.Mask = r.U8()
			in.TexUnit = r.U8()
			for s := range in.Src {
				in.Src[s].File = shader.File(r.U8())
				in.Src[s].Idx = r.U8()
				sw := r.U8()
				in.Src[s].Swz = shader.Swz(sw&3, sw>>2&3, sw>>4&3, sw>>6&3)
				in.Src[s].Neg = r.Bool()
			}
		}
	}
	return p
}

func appendTexSpec(b []byte, t api.TextureSpec) []byte {
	b = wire.AppendU8(b, uint8(t.Kind))
	b = wire.AppendU32(b, uint32(t.W))
	b = wire.AppendU32(b, uint32(t.H))
	b = wire.AppendU32(b, uint32(t.Cell))
	b = wire.AppendU64(b, t.Seed)
	b = api.AppendVec4(b, t.A)
	b = api.AppendVec4(b, t.B)
	b = wire.AppendF32(b, t.Amp)
	return wire.AppendU8(b, uint8(t.Filter))
}

func decodeTexSpec(r *wire.Reader) api.TextureSpec {
	return api.TextureSpec{
		Kind:   api.TextureKind(r.U8()),
		W:      int(r.U32()),
		H:      int(r.U32()),
		Cell:   int(r.U32()),
		Seed:   r.U64(),
		A:      api.ReadVec4(r),
		B:      api.ReadVec4(r),
		Amp:    r.F32(),
		Filter: texture.Filter(r.U8()),
	}
}

func appendCommand(b []byte, cmd api.Command) ([]byte, error) {
	switch c := cmd.(type) {
	case api.SetPipeline:
		b = api.AppendPipeline(append(b, tagSetPipeline), c)
	case api.SetUniforms:
		b = wire.AppendU8(b, tagSetUniforms)
		b = wire.AppendU16(b, uint16(c.First))
		b = wire.AppendU16(b, uint16(len(c.Values)))
		for _, v := range c.Values {
			b = api.AppendVec4(b, v)
		}
	case api.Draw:
		b = append(b, tagDraw, uint8(c.NumAttrs))
		b = wire.AppendU32(b, uint32(len(c.Data)))
		for _, v := range c.Data {
			b = api.AppendVec4(b, v)
		}
		b = wire.AppendU32(b, uint32(len(c.Indices)))
		for _, ix := range c.Indices {
			b = wire.AppendU16(b, ix)
		}
	case api.UploadProgram:
		b = append(b, tagUploadProgram, uint8(c.ID))
		b = appendProgram(b, c.Program)
	case api.UploadTexture:
		b = append(b, tagUploadTexture, uint8(c.ID))
		b = appendTexSpec(b, c.Spec)
	case api.SetRenderTargets:
		b = append(b, tagSetRenderTargets, uint8(c.N))
	default:
		return b, fmt.Errorf("trace: unknown command %T", cmd)
	}
	return b, nil
}

// decodeCommand decodes one command. Read failures latch in r; the error
// reports a cap exceeded or an unknown tag. A latched failure reads as tag 0,
// so an unknown tag returns the reader's error when it has one.
func decodeCommand(r *wire.Reader) (api.Command, error) {
	switch tag := r.U8(); tag {
	case tagSetPipeline:
		return api.ReadPipeline(r), nil
	case tagSetUniforms:
		return api.SetUniforms{First: int(r.U16()), Values: vec4s(r, int(r.U16()))}, nil
	case tagDraw:
		c := api.Draw{NumAttrs: int(r.U8())}
		n := int(r.U32())
		if n > maxDrawVec4s {
			return nil, fmt.Errorf("implausible draw size %d", n)
		}
		c.Data = vec4s(r, n)
		ni := int(r.U32())
		if ni > maxDrawIndices {
			return nil, fmt.Errorf("implausible index count %d", ni)
		}
		// Indices stay nil for a non-indexed draw: TriangleCount branches on it.
		if ni = r.Count(ni, sizeIndex); ni > 0 {
			c.Indices = make([]uint16, ni)
			for i := range c.Indices {
				c.Indices[i] = r.U16()
			}
		}
		return c, nil
	case tagUploadProgram:
		return api.UploadProgram{ID: api.ProgramID(r.U8()), Program: decodeProgram(r)}, nil
	case tagUploadTexture:
		return api.UploadTexture{ID: api.TextureID(r.U8()), Spec: decodeTexSpec(r)}, nil
	case tagSetRenderTargets:
		return api.SetRenderTargets{N: int(r.U8())}, nil
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("unknown command tag %d", tag)
	}
}
