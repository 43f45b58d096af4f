package rendelim_test

import (
	"bytes"
	"testing"

	"rendelim"
)

func tinyParams() rendelim.Params {
	p := rendelim.DefaultParams()
	p.Width, p.Height, p.Frames = 128, 96, 6
	return p
}

func TestPublicBuildAndRun(t *testing.T) {
	tr, err := rendelim.Build("ccs", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	base, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	re, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.RE))
	if err != nil {
		t.Fatal(err)
	}
	if re.Total.TotalCycles() >= base.Total.TotalCycles() {
		t.Fatal("RE should beat baseline on ccs")
	}
	if e := rendelim.ComputeEnergy(base); e.Total() <= 0 {
		t.Fatal("energy model returned nothing")
	}
}

func TestPublicBuildUnknownAlias(t *testing.T) {
	if _, err := rendelim.Build("nope", tinyParams()); err == nil {
		t.Fatal("unknown alias should error")
	}
}

func TestBenchmarkListing(t *testing.T) {
	if len(rendelim.Benchmarks()) != 10 {
		t.Fatal("suite should have 10 entries")
	}
	if len(rendelim.ExtraBenchmarks()) != 3 {
		t.Fatal("extras should have 3 entries")
	}
}

func TestTraceEncodeDecodeViaPublicAPI(t *testing.T) {
	tr, err := rendelim.Build("cde", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rendelim.EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := rendelim.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded trace must simulate to identical cycle counts.
	a, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.RE))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rendelim.Run(got, rendelim.WithTechnique(rendelim.RE))
	if err != nil {
		t.Fatal(err)
	}
	if a.Total.TotalCycles() != b.Total.TotalCycles() ||
		a.Total.TilesSkipped != b.Total.TilesSkipped {
		t.Fatal("decoded trace simulates differently")
	}
}

func TestCustomTraceViaPublicAPI(t *testing.T) {
	tr := &rendelim.Trace{
		Name: "custom", Width: 64, Height: 64,
		Programs: rendelim.StandardPrograms(),
		Textures: []rendelim.TextureSpec{
			{Kind: rendelim.TexChecker, W: 16, H: 16, Cell: 4,
				A: rendelim.V4(1, 0, 0, 1), B: rendelim.V4(0, 0, 1, 1)},
		},
	}
	for f := 0; f < 5; f++ {
		cmds := []rendelim.Command{
			rendelim.MVPUniforms(rendelim.Ortho(0, 64, 0, 64, -1, 1)),
			rendelim.SetUniforms{First: 4, Values: []rendelim.Vec4{rendelim.V4(1, 1, 1, 1)}},
			rendelim.SetPipeline{VS: rendelim.ProgTransformVS, FS: rendelim.ProgTexFS},
			rendelim.Draw{NumAttrs: 3, Data: rendelim.QuadVerts(nil, 0, 0, 64, 64, 0, rendelim.V4(1, 1, 1, 1))},
		}
		tr.Frames = append(tr.Frames, rendelim.Frame{Commands: cmds})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.RE))
	if err != nil {
		t.Fatal(err)
	}
	// Identical frames: everything after warm-up skips.
	if res.Frames[4].TilesSkipped != res.Frames[4].TilesTotal {
		t.Fatalf("static custom trace should fully skip, got %d/%d",
			res.Frames[4].TilesSkipped, res.Frames[4].TilesTotal)
	}
	if len(rendelim.RE.SkippedStages()) == 0 {
		t.Fatal("skipped stages missing")
	}
}
