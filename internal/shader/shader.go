// Package shader implements the programmable-stage model of the simulated
// GPU: a small vec4 register bytecode that both the Vertex Processors and
// the Fragment Processors execute (paper Section II, "programs called
// shaders ... shared among all vertices of a drawcall"). The interpreter
// renders real colors — the functional half of the simulator — and counts
// executed instructions and texture samples for the timing and energy
// models.
package shader

import (
	"fmt"
	"math"

	"rendelim/internal/geom"
)

// Register-file size limits. They mirror the small register budgets of a
// Mali-class shader core and bound Batch's fixed storage.
const (
	MaxInputs  = 8  // vertex attributes / interpolated varyings
	MaxTemps   = 8  // scratch registers
	MaxConsts  = 32 // uniform registers ("scene constants")
	MaxOutputs = 4  // o0 = position (VS) or color (FS), o1.. = varyings
	MaxTexUnit = 4
)

// Op enumerates the VM opcodes.
type Op uint8

// Supported operations. All execute in one cycle of a shader processor.
const (
	OpMov Op = iota // d = a
	OpAdd           // d = a + b
	OpSub           // d = a - b
	OpMul           // d = a * b
	OpMad           // d = a*b + c
	OpDP3           // d = splat(a.xyz · b.xyz)
	OpDP4           // d = splat(a · b)
	OpMin           // d = min(a, b)
	OpMax           // d = max(a, b)
	OpRcp           // d = splat(1 / a.x)
	OpRsq           // d = splat(1 / sqrt(|a.x|))
	OpFrc           // d = a - floor(a)
	OpFlr           // d = floor(a)
	OpSat           // d = clamp(a, 0, 1)
	OpCmp           // d_i = a_i >= 0 ? b_i : c_i
	OpTex           // d = sample(TexUnit, a.xy)
	opCount
)

var opNames = [opCount]string{
	"mov", "add", "sub", "mul", "mad", "dp3", "dp4", "min", "max",
	"rcp", "rsq", "frc", "flr", "sat", "cmp", "tex",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// nsrc[op] is the number of source operands the op reads.
var nsrc = [opCount]int{
	OpMov: 1, OpAdd: 2, OpSub: 2, OpMul: 2, OpMad: 3, OpDP3: 2, OpDP4: 2,
	OpMin: 2, OpMax: 2, OpRcp: 1, OpRsq: 1, OpFrc: 1, OpFlr: 1, OpSat: 1,
	OpCmp: 3, OpTex: 1,
}

// File selects a register bank.
type File uint8

// Register banks.
const (
	FileTemp   File = iota // r0..r7, read/write
	FileInput              // v0..v7, read-only
	FileConst              // c0..c31, read-only uniforms
	FileOutput             // o0..o3, write-only
)

// String implements fmt.Stringer.
func (f File) String() string {
	switch f {
	case FileTemp:
		return "r"
	case FileInput:
		return "v"
	case FileConst:
		return "c"
	case FileOutput:
		return "o"
	}
	return "?"
}

// Swizzle selects, per destination component, which source component to
// read. The identity swizzle is {0,1,2,3} (".xyzw").
type Swizzle [4]uint8

// SwzXYZW is the identity swizzle.
var SwzXYZW = Swizzle{0, 1, 2, 3}

// Swz builds a swizzle from component indices (0=x .. 3=w).
func Swz(x, y, z, w uint8) Swizzle { return Swizzle{x, y, z, w} }

// Src is a source operand: a register reference with swizzle and negation.
type Src struct {
	File File
	Idx  uint8
	Swz  Swizzle
	Neg  bool
}

// R, V, C construct plain temp/input/const sources with identity swizzle.
func R(i uint8) Src { return Src{File: FileTemp, Idx: i, Swz: SwzXYZW} }

// V returns input register i as a source.
func V(i uint8) Src { return Src{File: FileInput, Idx: i, Swz: SwzXYZW} }

// C returns constant register i as a source.
func C(i uint8) Src { return Src{File: FileConst, Idx: i, Swz: SwzXYZW} }

// Swizzled returns s with the given swizzle.
func (s Src) Swizzled(sw Swizzle) Src { s.Swz = sw; return s }

// Negated returns s with the sign flipped.
func (s Src) Negated() Src { s.Neg = !s.Neg; return s }

// Write-mask bits for Dst.Mask. A zero mask means "all lanes" so that the
// zero value of Dst writes the whole register.
const (
	MaskX = 1 << iota
	MaskY
	MaskZ
	MaskW
	MaskXYZW = MaskX | MaskY | MaskZ | MaskW
)

// Dst is a destination operand: a temp or output register with an optional
// per-component write mask (as in ARB/DX shader assembly).
type Dst struct {
	File File
	Idx  uint8
	Mask uint8
}

// RD and OD construct temp and output destinations.
func RD(i uint8) Dst { return Dst{File: FileTemp, Idx: i} }

// OD returns output register i as a destination.
func OD(i uint8) Dst { return Dst{File: FileOutput, Idx: i} }

// Masked returns d writing only the lanes in mask.
func (d Dst) Masked(mask uint8) Dst { d.Mask = mask; return d }

// Instr is one VM instruction.
type Instr struct {
	Op      Op
	Dst     Dst
	Src     [3]Src
	TexUnit uint8 // for OpTex
}

// Program is a validated sequence of instructions with a name for reports.
type Program struct {
	Name   string
	Instrs []Instr
}

// Len returns the instruction count (the per-invocation cycle cost on one
// shader processor).
func (p *Program) Len() int { return len(p.Instrs) }

// Validate checks every register reference against the bank limits.
func (p *Program) Validate() error {
	for i, in := range p.Instrs {
		if in.Op >= opCount {
			return fmt.Errorf("shader %q instr %d: bad opcode %d", p.Name, i, in.Op)
		}
		switch in.Dst.File {
		case FileTemp:
			if in.Dst.Idx >= MaxTemps {
				return fmt.Errorf("shader %q instr %d: temp dst %d out of range", p.Name, i, in.Dst.Idx)
			}
		case FileOutput:
			if in.Dst.Idx >= MaxOutputs {
				return fmt.Errorf("shader %q instr %d: output dst %d out of range", p.Name, i, in.Dst.Idx)
			}
		default:
			return fmt.Errorf("shader %q instr %d: dst file %v not writable", p.Name, i, in.Dst.File)
		}
		for s := 0; s < nsrc[in.Op]; s++ {
			src := in.Src[s]
			var limit uint8
			switch src.File {
			case FileTemp:
				limit = MaxTemps
			case FileInput:
				limit = MaxInputs
			case FileConst:
				limit = MaxConsts
			default:
				return fmt.Errorf("shader %q instr %d: src file %v not readable", p.Name, i, src.File)
			}
			if src.Idx >= limit {
				return fmt.Errorf("shader %q instr %d: src %v%d out of range", p.Name, i, src.File, src.Idx)
			}
			for _, c := range src.Swz {
				if c > 3 {
					return fmt.Errorf("shader %q instr %d: bad swizzle component %d", p.Name, i, c)
				}
			}
		}
		if in.Op == OpTex && in.TexUnit >= MaxTexUnit {
			return fmt.Errorf("shader %q instr %d: texture unit %d out of range", p.Name, i, in.TexUnit)
		}
	}
	return nil
}

// Sampler provides texture lookups to the VM. The GPU integrator wraps the
// texture store with cache-traffic recording behind this interface.
type Sampler interface {
	Sample(unit int, u, v float32) geom.Vec4
}

// Counts accumulates the dynamic activity of shader invocations.
type Counts struct {
	Instructions uint64
	TexSamples   uint64
	Invocations  uint64
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func rcp(v float32) float32 {
	if v == 0 {
		return float32(math.Inf(1))
	}
	return 1 / v
}

func rsq(v float32) float32 {
	av := float64(v)
	if av < 0 {
		av = -av
	}
	if av == 0 {
		return float32(math.Inf(1))
	}
	return float32(1 / math.Sqrt(av))
}

func frc(v float32) float32 { return v - flr(v) }

func flr(v float32) float32 { return float32(math.Floor(float64(v))) }

func cmp(a, b, c float32) float32 {
	if a >= 0 {
		return b
	}
	return c
}
