// Package rast implements the fixed-function geometry back-end and
// rasterizer of the Raster Pipeline (Section II): near-plane clipping,
// backface culling, screen mapping, edge-function triangle traversal in
// 2x2 quads with the top-left fill rule, and perspective-correct attribute
// interpolation. It produces the fragment stream that Early Depth and the
// Fragment Processors consume.
package rast

import (
	"math"

	"rendelim/internal/geom"
)

// MaxVaryings is the number of interpolated vec4 attributes per vertex
// (shader outputs o1..o3).
const MaxVaryings = 3

// Vertex is a post-vertex-shader vertex: clip-space position + varyings.
type Vertex struct {
	Pos geom.Vec4
	Var [MaxVaryings]geom.Vec4
}

// Triangle is three shaded vertices.
type Triangle struct {
	V [3]Vertex
}

// nearDist is the signed distance to the GL near plane z = -w. Vertices with
// d >= 0 are visible.
func nearDist(v Vertex) float32 { return v.Pos.Z + v.Pos.W }

// lerpVertex interpolates all vertex data at parameter t along edge a->b.
func lerpVertex(a, b Vertex, t float32) Vertex {
	var out Vertex
	out.Pos = a.Pos.Lerp(b.Pos, t)
	for i := range out.Var {
		out.Var[i] = a.Var[i].Lerp(b.Var[i], t)
	}
	return out
}

// ClipNear clips tri against the near plane (Sutherland–Hodgman on z=-w) and
// appends the resulting triangles (0, 1 or 2) to dst, which it returns.
// Triangles entirely behind the plane are dropped; this is the clipping half
// of Primitive Assembly.
func ClipNear(dst []Triangle, tri Triangle) []Triangle {
	var in [4]Vertex
	n := 0
	prev := tri.V[2]
	prevD := nearDist(prev)
	for i := 0; i < 3; i++ {
		cur := tri.V[i]
		curD := nearDist(cur)
		if curD >= 0 {
			if prevD < 0 {
				t := prevD / (prevD - curD)
				in[n] = lerpVertex(prev, cur, t)
				n++
			}
			in[n] = cur
			n++
		} else if prevD >= 0 {
			t := prevD / (prevD - curD)
			in[n] = lerpVertex(prev, cur, t)
			n++
		}
		prev, prevD = cur, curD
	}
	switch n {
	case 3:
		dst = append(dst, Triangle{V: [3]Vertex{in[0], in[1], in[2]}})
	case 4:
		dst = append(dst, Triangle{V: [3]Vertex{in[0], in[1], in[2]}})
		dst = append(dst, Triangle{V: [3]Vertex{in[0], in[2], in[3]}})
	}
	return dst
}

// ScreenTri is a screen-space triangle ready for traversal.
type ScreenTri struct {
	// X, Y are pixel coordinates (y grows downward), Z is depth in [0,1],
	// InvW is 1/w_clip for perspective-correct interpolation.
	X, Y, Z, InvW [3]float32
	// VarW[i] holds vertex i's varyings pre-divided by w.
	VarW [3][MaxVaryings]geom.Vec4
	// Area2 is twice the signed screen area (positive = counter-clockwise
	// in screen space, i.e. clockwise on screen since y points down).
	Area2 float32
}

// Setup maps a clipped clip-space triangle to the screen. It returns
// ok=false for degenerate (zero-area) triangles, or when cullBack is set and
// the triangle is back-facing (negative signed area).
func Setup(tri Triangle, width, height int, cullBack bool) (st ScreenTri, ok bool) {
	for i := 0; i < 3; i++ {
		p := tri.V[i].Pos
		if p.W <= 1e-9 {
			return st, false // fully clipped input should prevent this
		}
		inv := 1 / p.W
		st.X[i] = (p.X*inv*0.5 + 0.5) * float32(width)
		st.Y[i] = (0.5 - p.Y*inv*0.5) * float32(height)
		st.Z[i] = p.Z*inv*0.5 + 0.5
		st.InvW[i] = inv
		for v := 0; v < MaxVaryings; v++ {
			st.VarW[i][v] = tri.V[i].Var[v].Scale(inv)
		}
	}
	st.Area2 = edge(st.X[0], st.Y[0], st.X[1], st.Y[1], st.X[2], st.Y[2])
	if st.Area2 == 0 {
		return st, false
	}
	if cullBack && st.Area2 < 0 {
		return st, false
	}
	return st, true
}

// edge evaluates the edge function of (ax,ay)->(bx,by) at (cx,cy).
func edge(ax, ay, bx, by, cx, cy float32) float32 {
	return (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
}

// BBox returns the pixel bounding box of the triangle, clipped to bounds.
func (st *ScreenTri) BBox(bounds geom.Rect) geom.Rect {
	minX := minf3(st.X[0], st.X[1], st.X[2])
	maxX := maxf3(st.X[0], st.X[1], st.X[2])
	minY := minf3(st.Y[0], st.Y[1], st.Y[2])
	maxY := maxf3(st.Y[0], st.Y[1], st.Y[2])
	r := geom.Rect{
		X0: int(math.Floor(float64(minX))),
		Y0: int(math.Floor(float64(minY))),
		X1: int(math.Ceil(float64(maxX))),
		Y1: int(math.Ceil(float64(maxY))),
	}
	return r.Intersect(bounds)
}

// Fragment is one covered pixel delivered by the traverser.
type Fragment struct {
	X, Y int
	Z    float32 // interpolated depth in [0,1]
	Var  [MaxVaryings]geom.Vec4
}

// FragmentFunc consumes fragments.
type FragmentFunc func(frag *Fragment)

// QuadFunc is called once per 2x2 quad with at least one covered pixel,
// before its fragments are emitted; mask has bit i set for covered pixel i
// (0=TL, 1=TR, 2=BL, 3=BR). Quads are the unit of the Early Depth stage
// occupancy in Table I. May be nil.
type QuadFunc func(qx, qy int, mask uint8)

// RasterizeInto traverses the triangle restricted to rect (a tile,
// typically), emitting covered fragments in quad order with
// perspective-correct varyings. Coverage follows the top-left rule so shared
// edges are drawn exactly once. frag is caller-provided scratch, overwritten
// for every covered pixel and passed to emit, so the traversal itself never
// allocates; emit must not retain the pointer past its return.
func (st *ScreenTri) RasterizeInto(rect geom.Rect, frag *Fragment, onQuad QuadFunc, emit FragmentFunc) {
	bb := st.BBox(rect)
	if bb.Empty() {
		return
	}
	// Orient edges so the interior has positive edge values.
	flip := float32(1)
	if st.Area2 < 0 {
		flip = -1
	}
	invArea := 1 / (st.Area2 * flip)

	// Edge coefficients for incremental evaluation:
	// e(x,y) = A*x + B*y + C, evaluated at pixel centers.
	type edgeEq struct{ a, b, c float64 }
	mk := func(ax, ay, bx, by float32) edgeEq {
		a := float64((by - ay) * -flip)
		b := float64((bx - ax) * flip)
		c := -a*float64(ax) - b*float64(ay)
		return edgeEq{a, b, c}
	}
	// Edge i is opposite vertex i: e0 = v1->v2, e1 = v2->v0, e2 = v0->v1.
	e := [3]edgeEq{
		mk(st.X[1], st.Y[1], st.X[2], st.Y[2]),
		mk(st.X[2], st.Y[2], st.X[0], st.Y[0]),
		mk(st.X[0], st.Y[0], st.X[1], st.Y[1]),
	}
	// Top-left rule: on a tie (pixel center exactly on an edge) exactly one
	// of the two triangles sharing the edge owns the pixel. Opposite
	// directed edges negate (a,b), so this predicate is true for exactly
	// one orientation of any non-degenerate edge.
	var incl [3]bool
	for i := range e {
		incl[i] = e[i].a > 0 || (e[i].a == 0 && e[i].b < 0)
	}
	inside := func(i int, v float64) bool {
		if v != 0 {
			return v > 0
		}
		return incl[i]
	}

	qy0 := bb.Y0 &^ 1
	qx0 := bb.X0 &^ 1
	for qy := qy0; qy < bb.Y1; qy += 2 {
		for qx := qx0; qx < bb.X1; qx += 2 {
			var mask uint8
			var covered [4][3]float64
			for p := 0; p < 4; p++ {
				x := qx + p&1
				y := qy + p>>1
				if x < bb.X0 || x >= bb.X1 || y < bb.Y0 || y >= bb.Y1 {
					continue
				}
				cx := float64(x) + 0.5
				cy := float64(y) + 0.5
				v0 := e[0].a*cx + e[0].b*cy + e[0].c
				v1 := e[1].a*cx + e[1].b*cy + e[1].c
				v2 := e[2].a*cx + e[2].b*cy + e[2].c
				if inside(0, v0) && inside(1, v1) && inside(2, v2) {
					mask |= 1 << uint(p)
					covered[p] = [3]float64{v0, v1, v2}
				}
			}
			if mask == 0 {
				continue
			}
			if onQuad != nil {
				onQuad(qx>>1, qy>>1, mask)
			}
			for p := 0; p < 4; p++ {
				if mask&(1<<uint(p)) == 0 {
					continue
				}
				w0 := float32(covered[p][0]) * invArea
				w1 := float32(covered[p][1]) * invArea
				w2 := float32(covered[p][2]) * invArea
				frag.X = qx + p&1
				frag.Y = qy + p>>1
				frag.Z = w0*st.Z[0] + w1*st.Z[1] + w2*st.Z[2]
				iw := w0*st.InvW[0] + w1*st.InvW[1] + w2*st.InvW[2]
				var rw float32
				if iw != 0 {
					rw = 1 / iw
				}
				for v := 0; v < MaxVaryings; v++ {
					frag.Var[v] = st.VarW[0][v].Scale(w0).
						Add(st.VarW[1][v].Scale(w1)).
						Add(st.VarW[2][v].Scale(w2)).
						Scale(rw)
				}
				emit(frag)
			}
		}
	}
}

func minf3(a, b, c float32) float32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func maxf3(a, b, c float32) float32 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
