package geom

import "math"

// Mat4 is a 4x4 float32 matrix in row-major order: element (r,c) is M[r*4+c].
// Row-major storage means each row is directly usable as a shader uniform
// vec4, matching how the workload generator uploads matrices as four
// consecutive constant registers.
type Mat4 [16]float32

// Identity returns the identity matrix.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Row returns row r of m as a Vec4.
func (m Mat4) Row(r int) Vec4 {
	return Vec4{m[r*4], m[r*4+1], m[r*4+2], m[r*4+3]}
}

// Mul returns the matrix product m*n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			var s float32
			for k := 0; k < 4; k++ {
				s += m[r*4+k] * n[k*4+c]
			}
			out[r*4+c] = s
		}
	}
	return out
}

// MulVec returns m*v treating v as a column vector.
func (m Mat4) MulVec(v Vec4) Vec4 {
	return Vec4{
		m.Row(0).Dot(v),
		m.Row(1).Dot(v),
		m.Row(2).Dot(v),
		m.Row(3).Dot(v),
	}
}

// Perspective returns a right-handed perspective projection with the given
// vertical field of view (radians), aspect ratio and near/far planes, mapping
// depth into [-1,1] clip space like OpenGL.
func Perspective(fovY, aspect, near, far float32) Mat4 {
	f := float32(1 / math.Tan(float64(fovY)/2))
	var m Mat4
	m[0] = f / aspect
	m[5] = f
	m[10] = (far + near) / (near - far)
	m[11] = 2 * far * near / (near - far)
	m[14] = -1
	return m
}

// Ortho returns an orthographic projection mapping the given box to clip
// space, matching glOrtho.
func Ortho(left, right, bottom, top, near, far float32) Mat4 {
	var m Mat4
	m[0] = 2 / (right - left)
	m[3] = -(right + left) / (right - left)
	m[5] = 2 / (top - bottom)
	m[7] = -(top + bottom) / (top - bottom)
	m[10] = -2 / (far - near)
	m[11] = -(far + near) / (far - near)
	m[15] = 1
	return m
}

// LookAt returns a right-handed view matrix placing the camera at eye,
// looking at center, with the given up vector.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalize()
	s := f.Cross(up.Normalize()).Normalize()
	u := s.Cross(f)
	m := Identity()
	m[0], m[1], m[2] = s.X, s.Y, s.Z
	m[4], m[5], m[6] = u.X, u.Y, u.Z
	m[8], m[9], m[10] = -f.X, -f.Y, -f.Z
	m[3] = -s.Dot(eye)
	m[7] = -u.Dot(eye)
	m[11] = f.Dot(eye)
	return m
}
