package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/rerr"
	"rendelim/internal/shader"
	"rendelim/internal/workload"
)

func TestRoundTripAllBenchmarks(t *testing.T) {
	p := workload.Params{Width: 96, Height: 64, Frames: 3, Seed: 1}
	for _, b := range append(workload.Suite(), workload.Extras()...) {
		orig := b.Build(p)
		var buf bytes.Buffer
		if err := Encode(&buf, orig); err != nil {
			t.Fatalf("%s: encode: %v", b.Alias, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", b.Alias, err)
		}
		if got.Name != orig.Name || got.Width != orig.Width || got.Height != orig.Height {
			t.Fatalf("%s: header mismatch", b.Alias)
		}
		if got.ClearColor != orig.ClearColor {
			t.Fatalf("%s: clear color mismatch", b.Alias)
		}
		if len(got.Programs) != len(orig.Programs) {
			t.Fatalf("%s: program count", b.Alias)
		}
		for i := range got.Programs {
			if got.Programs[i].Name != orig.Programs[i].Name ||
				!reflect.DeepEqual(got.Programs[i].Instrs, orig.Programs[i].Instrs) {
				t.Fatalf("%s: program %d mismatch", b.Alias, i)
			}
		}
		if !reflect.DeepEqual(got.Textures, orig.Textures) {
			t.Fatalf("%s: textures mismatch", b.Alias)
		}
		if len(got.Frames) != len(orig.Frames) {
			t.Fatalf("%s: frame count", b.Alias)
		}
		for f := range got.Frames {
			if !reflect.DeepEqual(got.Frames[f], orig.Frames[f]) {
				t.Fatalf("%s: frame %d mismatch", b.Alias, f)
			}
		}
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	p := workload.Params{Width: 96, Height: 64, Frames: 2, Seed: 1}
	b, _ := workload.ByAlias("ccs")
	tr := b.Build(p)
	var b1, b2 bytes.Buffer
	if err := Encode(&b1, tr); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b2, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("encoding not byte-stable")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := Decode(&buf); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p := workload.Params{Width: 96, Height: 64, Frames: 2, Seed: 1}
	b, _ := workload.ByAlias("cde")
	tr := b.Build(p)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, len(data) / 3, len(data) - 3} {
		if _, err := Decode(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsUnknownCommandTag(t *testing.T) {
	// Build a minimal valid header then a bogus command tag.
	tr := &api.Trace{Name: "x", Width: 16, Height: 16}
	tr.Frames = []api.Frame{{Commands: []api.Command{api.SetRenderTargets{N: 1}}}}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-2] = 200 // overwrite the command tag
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

// TestDecodeRejectsUnrunnableUploads: a trace whose bytes are well formed
// but whose uploads the simulator cannot run (a program writing past the
// temporaries, a texture without texels) fails Decode with ErrBadTrace
// instead of panicking the run that replays it.
func TestDecodeRejectsUnrunnableUploads(t *testing.T) {
	p := workload.Params{Width: 96, Height: 64, Frames: 2, Seed: 1}
	b, _ := workload.ByAlias("ccs")
	writesR200 := &shader.Program{Name: "bad", Instrs: []shader.Instr{{Op: shader.OpMov, Dst: shader.RD(200), Src: [3]shader.Src{shader.R(0)}}}}
	empty := api.TextureSpec{Kind: api.TexChecker, Cell: 1}
	for _, tc := range []struct {
		name   string
		mutate func(*api.Trace)
	}{
		{"uploaded program writes r200", func(tr *api.Trace) {
			tr.Frames[1].Commands = append([]api.Command{api.UploadProgram{ID: 0, Program: writesR200}}, tr.Frames[1].Commands...)
		}},
		{"0x0 registry texture", func(tr *api.Trace) { tr.Textures = append(tr.Textures, empty) }},
		{"0x0 uploaded texture", func(tr *api.Trace) {
			tr.Frames[1].Commands = append([]api.Command{api.UploadTexture{ID: 0, Spec: empty}}, tr.Frames[1].Commands...)
		}},
	} {
		tr := b.Build(p)
		tc.mutate(tr)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if _, err := Decode(&buf); !errors.Is(err, rerr.ErrBadTrace) {
			t.Errorf("%s: Decode error %v, want ErrBadTrace", tc.name, err)
		}
	}
}

func TestDecodedTraceSimulatesIdentically(t *testing.T) {
	// The decisive property: a decoded trace is byte-equivalent for the
	// Signature Unit, so the simulation outcome matches exactly. Verified
	// at the command/primitive byte level here (the gpusim tests cover the
	// full pipeline).
	p := workload.Params{Width: 96, Height: 64, Frames: 3, Seed: 1}
	b, _ := workload.ByAlias("hop")
	orig := b.Build(p)
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for f := range orig.Frames {
		for c, cmd := range orig.Frames[f].Commands {
			if d, ok := cmd.(api.Draw); ok {
				var a, bb []byte
				for tri := 0; tri < d.TriangleCount(); tri++ {
					a = api.AppendPrimitive(a, d, tri)
					bb = api.AppendPrimitive(bb, got.Frames[f].Commands[c].(api.Draw), tri)
				}
				if !bytes.Equal(a, bb) {
					t.Fatalf("frame %d cmd %d: primitive bytes differ", f, c)
				}
			}
		}
	}
}
