// Package geom provides the small fixed-size linear-algebra types used
// throughout the simulator: float32 vectors, 4x4 matrices and axis-aligned
// boxes. All operations are deterministic (no math/rand, no FMA contraction
// assumptions) so that identical scene inputs always produce bit-identical
// colors, which the Rendering Elimination invariant "equal inputs => equal
// outputs" relies on.
package geom

import "math"

// Vec3 is a three-component float32 vector.
type Vec3 struct{ X, Y, Z float32 }

// Vec4 is a four-component float32 vector. It doubles as the register word of
// the shader VM and as the unit of a vertex attribute (16 bytes).
type Vec4 struct{ X, Y, Z, W float32 }

// V3 constructs a Vec3.
func V3(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// V4 constructs a Vec4.
func V4(x, y, z, w float32) Vec4 { return Vec4{x, y, z, w} }

// Add returns a+b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a-b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a*s.
func (a Vec3) Scale(s float32) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product of a and b.
func (a Vec3) Dot(b Vec3) float32 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a x b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean length of a.
func (a Vec3) Len() float32 { return float32(math.Sqrt(float64(a.Dot(a)))) }

// Normalize returns a scaled to unit length, or the zero vector if a is zero.
func (a Vec3) Normalize() Vec3 {
	l := a.Len()
	if l == 0 {
		return Vec3{}
	}
	return a.Scale(1 / l)
}

// Vec4 returns the homogeneous extension of a with the given w.
func (a Vec3) Vec4(w float32) Vec4 { return Vec4{a.X, a.Y, a.Z, w} }

// Identical reports whether a and b are equal bit for bit: unlike ==, it
// tells +0 from −0, and NaNs match only with the same payload.
func (a Vec4) Identical(b Vec4) bool {
	return math.Float32bits(a.X) == math.Float32bits(b.X) &&
		math.Float32bits(a.Y) == math.Float32bits(b.Y) &&
		math.Float32bits(a.Z) == math.Float32bits(b.Z) &&
		math.Float32bits(a.W) == math.Float32bits(b.W)
}

// Add returns a+b.
func (a Vec4) Add(b Vec4) Vec4 { return Vec4{a.X + b.X, a.Y + b.Y, a.Z + b.Z, a.W + b.W} }

// Sub returns a-b.
func (a Vec4) Sub(b Vec4) Vec4 { return Vec4{a.X - b.X, a.Y - b.Y, a.Z - b.Z, a.W - b.W} }

// Mul returns the component-wise product of a and b.
func (a Vec4) Mul(b Vec4) Vec4 { return Vec4{a.X * b.X, a.Y * b.Y, a.Z * b.Z, a.W * b.W} }

// Scale returns a*s.
func (a Vec4) Scale(s float32) Vec4 { return Vec4{a.X * s, a.Y * s, a.Z * s, a.W * s} }

// Dot returns the four-component dot product.
func (a Vec4) Dot(b Vec4) float32 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z + a.W*b.W }

// Dot3 returns the dot product of the xyz components only.
func (a Vec4) Dot3(b Vec4) float32 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// XYZ returns the first three components as a Vec3.
func (a Vec4) XYZ() Vec3 { return Vec3{a.X, a.Y, a.Z} }

// Comp returns component i (0..3) of a.
func (a Vec4) Comp(i int) float32 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	case 2:
		return a.Z
	default:
		return a.W
	}
}

// WithComp returns a copy of a with component i set to v.
func (a Vec4) WithComp(i int, v float32) Vec4 {
	switch i {
	case 0:
		a.X = v
	case 1:
		a.Y = v
	case 2:
		a.Z = v
	default:
		a.W = v
	}
	return a
}

// Lerp returns a + t*(b-a), component-wise.
func (a Vec4) Lerp(b Vec4, t float32) Vec4 {
	return Vec4{
		a.X + t*(b.X-a.X),
		a.Y + t*(b.Y-a.Y),
		a.Z + t*(b.Z-a.Z),
		a.W + t*(b.W-a.W),
	}
}

// Clamp01 clamps every component of a into [0,1].
func (a Vec4) Clamp01() Vec4 {
	return Vec4{clamp01(a.X), clamp01(a.Y), clamp01(a.Z), clamp01(a.W)}
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

// Rect is an integer half-open rectangle [X0,X1) x [Y0,Y1).
type Rect struct{ X0, Y0, X1, Y1 int }

// Empty reports whether r contains no pixels.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Intersect returns the intersection of r and s.
func (r Rect) Intersect(s Rect) Rect {
	if s.X0 > r.X0 {
		r.X0 = s.X0
	}
	if s.Y0 > r.Y0 {
		r.Y0 = s.Y0
	}
	if s.X1 < r.X1 {
		r.X1 = s.X1
	}
	if s.Y1 < r.Y1 {
		r.Y1 = s.Y1
	}
	return r
}

// Area returns the number of pixels in r, or 0 if r is empty.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return (r.X1 - r.X0) * (r.Y1 - r.Y0)
}
