package workload

import (
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/geom"
)

func lastDraw(t *testing.T, b *frameBuilder) api.Draw {
	t.Helper()
	f := b.done()
	for i := len(f.Commands) - 1; i >= 0; i-- {
		if d, ok := f.Commands[i].(api.Draw); ok {
			return d
		}
	}
	t.Fatal("no draw emitted")
	return api.Draw{}
}

func TestQuad2DEmitsIndexedQuad(t *testing.T) {
	b := newFrame()
	b.quad2D(10, 20, 30, 40, 0, geom.V4(1, 0, 0, 1))
	d := lastDraw(t, b)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.VertexCount() != 4 || d.TriangleCount() != 2 {
		t.Fatalf("quad: %d verts %d tris", d.VertexCount(), d.TriangleCount())
	}
	// Corner positions present.
	found := 0
	for v := 0; v < 4; v++ {
		p := d.Vertex(v)[0]
		if (p.X == 10 || p.X == 40) && (p.Y == 20 || p.Y == 60) {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("only %d corners placed correctly", found)
	}
}

func TestBox3DGeometry(t *testing.T) {
	b := newFrame()
	b.box3D(geom.V3(1, 2, 3), geom.V3(1, 1, 1))
	d := lastDraw(t, b)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.VertexCount() != 24 || d.TriangleCount() != 12 {
		t.Fatalf("box: %d verts %d tris, want 24/12", d.VertexCount(), d.TriangleCount())
	}
	// All vertices lie on the box surface.
	for v := 0; v < d.VertexCount(); v++ {
		p := d.Vertex(v)[0]
		dx, dy, dz := p.X-1, p.Y-2, p.Z-3
		on := abs1(dx) || abs1(dy) || abs1(dz)
		if !on {
			t.Fatalf("vertex %d (%v) not on box surface", v, p)
		}
	}
	// Normals are unit axis vectors.
	for v := 0; v < d.VertexCount(); v++ {
		n := d.Vertex(v)[1]
		if n.Dot3(n) != 1 {
			t.Fatalf("vertex %d normal %v not unit axis", v, n)
		}
	}
}

func abs1(v float32) bool { return v == 1 || v == -1 }

func TestFlushBatchesAndResets(t *testing.T) {
	b := newFrame()
	b.quad2D(0, 0, 1, 1, 0, geom.V4(1, 1, 1, 1))
	b.quad2D(2, 0, 1, 1, 0, geom.V4(1, 1, 1, 1))
	b.flush()
	b.quad2D(4, 0, 1, 1, 0, geom.V4(1, 1, 1, 1))
	f := b.done()
	draws := 0
	for _, c := range f.Commands {
		if d, ok := c.(api.Draw); ok {
			draws++
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if draws != 2 {
		t.Fatalf("draws = %d, want 2 (batched + trailing)", draws)
	}
}

func TestSetPipelineFlushesPending(t *testing.T) {
	b := newFrame()
	b.quad2D(0, 0, 1, 1, 0, geom.V4(1, 1, 1, 1))
	b.setPipeline(pipe2D(ProgFlatFS, 0, api.BlendNone))
	f := b.done()
	// The draw must precede the pipeline switch.
	var order []string
	for _, c := range f.Commands {
		switch c.(type) {
		case api.Draw:
			order = append(order, "draw")
		case api.SetPipeline:
			order = append(order, "pipe")
		}
	}
	if len(order) != 2 || order[0] != "draw" || order[1] != "pipe" {
		t.Fatalf("order = %v", order)
	}
}

func TestOrtho2DMapsPixels(t *testing.T) {
	m := ortho2D(100, 50)
	bl := m.MulVec(geom.V4(0, 0, 0, 1))
	if bl.X != -1 || bl.Y != -1 {
		t.Fatalf("origin maps to %v", bl)
	}
	tr := m.MulVec(geom.V4(100, 50, 0, 1))
	if tr.X != 1 || tr.Y != 1 {
		t.Fatalf("far corner maps to %v", tr)
	}
}

func TestPipePresets(t *testing.T) {
	p2 := pipe2D(ProgTexFS, 3, api.BlendAlpha)
	if p2.DepthTest || p2.DepthWrite || p2.Blend != api.BlendAlpha || p2.Tex[0] != 3 {
		t.Fatalf("pipe2D = %+v", p2)
	}
	p3 := pipe3D(ProgLambertFS, 1)
	if !p3.DepthTest || !p3.DepthWrite || p3.Blend != api.BlendNone {
		t.Fatalf("pipe3D = %+v", p3)
	}
}
