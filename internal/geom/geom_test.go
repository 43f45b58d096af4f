package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func vecApprox(a, b Vec4, eps float32) bool {
	return approx(a.X, b.X, eps) && approx(a.Y, b.Y, eps) &&
		approx(a.Z, b.Z, eps) && approx(a.W, b.W, eps)
}

func TestVec3CrossOrthogonal(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(-4, 1, 0.5)
	c := a.Cross(b)
	if !approx(c.Dot(a), 0, 1e-4) || !approx(c.Dot(b), 0, 1e-4) {
		t.Fatalf("cross product not orthogonal: %v", c)
	}
}

func TestVec3NormalizeLength(t *testing.T) {
	v := V3(3, 4, 12).Normalize()
	if !approx(v.Len(), 1, 1e-6) {
		t.Fatalf("normalize length = %v, want 1", v.Len())
	}
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Fatalf("normalize zero = %v, want zero", got)
	}
}

func TestVec4CompRoundTrip(t *testing.T) {
	v := V4(1, 2, 3, 4)
	for i := 0; i < 4; i++ {
		if v.Comp(i) != float32(i+1) {
			t.Fatalf("Comp(%d) = %v", i, v.Comp(i))
		}
		w := v.WithComp(i, 9)
		if w.Comp(i) != 9 {
			t.Fatalf("WithComp(%d) failed: %v", i, w)
		}
	}
}

func TestVec4LerpEndpoints(t *testing.T) {
	a, b := V4(0, 1, 2, 3), V4(4, 5, 6, 7)
	if a.Lerp(b, 0) != a {
		t.Fatal("lerp(0) != a")
	}
	if a.Lerp(b, 1) != b {
		t.Fatal("lerp(1) != b")
	}
	mid := a.Lerp(b, 0.5)
	if !vecApprox(mid, V4(2, 3, 4, 5), 1e-6) {
		t.Fatalf("lerp(0.5) = %v", mid)
	}
}

func TestClamp01(t *testing.T) {
	v := V4(-1, 0.5, 2, 1).Clamp01()
	if v != V4(0, 0.5, 1, 1) {
		t.Fatalf("clamp = %v", v)
	}
}

func TestMat4IdentityMulVec(t *testing.T) {
	v := V4(1, -2, 3, 1)
	if got := Identity().MulVec(v); got != v {
		t.Fatalf("I*v = %v, want %v", got, v)
	}
}

func TestMat4MulAssociativeWithVec(t *testing.T) {
	// (A*B)*v == A*(B*v) up to float tolerance.
	a := Perspective(1.0, 1.5, 1, 100)
	b := LookAt(V3(5, 3, 8), V3(0, 0, 0), V3(0, 1, 0))
	v := V4(0.5, -1, 4, 1)
	lhs := a.Mul(b).MulVec(v)
	rhs := a.MulVec(b.MulVec(v))
	if !vecApprox(lhs, rhs, 1e-4) {
		t.Fatalf("(AB)v = %v, A(Bv) = %v", lhs, rhs)
	}
}

func TestPerspectiveMapsNearFar(t *testing.T) {
	p := Perspective(1.0, 1.5, 1, 100)
	near := p.MulVec(V4(0, 0, -1, 1))
	far := p.MulVec(V4(0, 0, -100, 1))
	if !approx(near.Z/near.W, -1, 1e-5) {
		t.Fatalf("near plane maps to %v, want -1", near.Z/near.W)
	}
	if !approx(far.Z/far.W, 1, 1e-4) {
		t.Fatalf("far plane maps to %v, want 1", far.Z/far.W)
	}
}

func TestOrthoMapsCorners(t *testing.T) {
	o := Ortho(0, 100, 0, 50, -1, 1)
	bl := o.MulVec(V4(0, 0, 0, 1))
	tr := o.MulVec(V4(100, 50, 0, 1))
	if !vecApprox(bl, V4(-1, -1, 0, 1), 1e-5) {
		t.Fatalf("bottom-left = %v", bl)
	}
	if !vecApprox(tr, V4(1, 1, 0, 1), 1e-5) {
		t.Fatalf("top-right = %v", tr)
	}
}

func TestLookAtEyeMapsToOrigin(t *testing.T) {
	eye := V3(5, 3, 8)
	m := LookAt(eye, V3(0, 0, 0), V3(0, 1, 0))
	got := m.MulVec(eye.Vec4(1))
	if !vecApprox(got, V4(0, 0, 0, 1), 1e-4) {
		t.Fatalf("lookAt(eye) = %v, want origin", got)
	}
	// The look direction should map to -Z.
	fwd := m.MulVec(V4(0, 0, 0, 1))
	_ = fwd
	center := m.MulVec(V4(0, 0, 0, 1))
	if center.Z >= 0 {
		t.Fatalf("center not in front of camera: %v", center)
	}
}

func TestRectIntersectArea(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 20, 20}
	got := a.Intersect(b)
	if got != (Rect{5, 5, 10, 10}) {
		t.Fatalf("intersect = %v", got)
	}
	if got.Area() != 25 {
		t.Fatalf("area = %d", got.Area())
	}
	if !a.Intersect(Rect{50, 50, 60, 60}).Empty() {
		t.Fatal("disjoint rects should intersect empty")
	}
	if (Rect{3, 3, 3, 9}).Area() != 0 {
		t.Fatal("degenerate rect area should be 0")
	}
}

// Property: matrix-vector multiplication distributes over vector addition.
func TestQuickMulVecDistributes(t *testing.T) {
	f := func(mv [16]float32, v1, v2 [4]float32) bool {
		if anyNaN(mv[:]...) || anyNaN(v1[:]...) || anyNaN(v2[:]...) {
			return true
		}
		// Bound magnitudes so float error stays proportional: matrix
		// entries in [-1, 1], vector components in [-100, 100].
		var m Mat4
		for i, x := range mv {
			m[i] = bound(x) / 100
		}
		a := V4(bound(v1[0]), bound(v1[1]), bound(v1[2]), bound(v1[3]))
		b := V4(bound(v2[0]), bound(v2[1]), bound(v2[2]), bound(v2[3]))
		lhs := m.MulVec(a.Add(b))
		rhs := m.MulVec(a).Add(m.MulVec(b))
		return vecApprox(lhs, rhs, 1e-2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// bound squashes any float32 (including NaN and ±Inf) into [-100,100].
func bound(v float32) float32 {
	if v != v || math.IsInf(float64(v), 0) {
		return 0
	}
	for v > 100 || v < -100 {
		v /= 1024
	}
	return v
}

func anyNaN(vs ...float32) bool {
	for _, v := range vs {
		if v != v || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}
