package workload

import (
	"testing"

	"rendelim/internal/api"
)

func small() Params { return Params{Width: 128, Height: 96, Frames: 6, Seed: 1} }

func TestSuiteMatchesTableII(t *testing.T) {
	s := Suite()
	if len(s) != 10 {
		t.Fatalf("suite has %d entries, want 10", len(s))
	}
	wantOrder := []string{"ccs", "cde", "coc", "ctr", "hop", "mst", "abi", "csn", "ter", "tib"}
	types := map[string]string{
		"ccs": "2D", "cde": "2D", "coc": "3D", "ctr": "2D", "hop": "2D",
		"mst": "3D", "abi": "2D", "csn": "3D", "ter": "3D", "tib": "3D",
	}
	for i, b := range s {
		if b.Alias != wantOrder[i] {
			t.Fatalf("position %d: %s, want %s", i, b.Alias, wantOrder[i])
		}
		if b.Type != types[b.Alias] {
			t.Fatalf("%s: type %s, want %s (Table II)", b.Alias, b.Type, types[b.Alias])
		}
		if b.Name == "" || b.Genre == "" || b.Build == nil {
			t.Fatalf("%s: incomplete entry", b.Alias)
		}
	}
}

func TestByAlias(t *testing.T) {
	if _, err := ByAlias("ccs"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByAlias("desktop"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByAlias("nope"); err == nil {
		t.Fatal("unknown alias should error")
	}
}

func TestAllTracesValidate(t *testing.T) {
	all := append(Suite(), Extras()...)
	for _, b := range all {
		tr := b.Build(small())
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Alias, err)
		}
		if len(tr.Frames) != small().Frames {
			t.Fatalf("%s: %d frames", b.Alias, len(tr.Frames))
		}
		if tr.Name != b.Alias {
			t.Fatalf("%s: trace named %q", b.Alias, tr.Name)
		}
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	for _, b := range Suite() {
		t1 := b.Build(small())
		t2 := b.Build(small())
		if len(t1.Frames) != len(t2.Frames) {
			t.Fatalf("%s: frame count differs", b.Alias)
		}
		for f := range t1.Frames {
			c1, c2 := t1.Frames[f].Commands, t2.Frames[f].Commands
			if len(c1) != len(c2) {
				t.Fatalf("%s frame %d: command count differs", b.Alias, f)
			}
			for i := range c1 {
				d1, ok1 := c1[i].(api.Draw)
				d2, ok2 := c2[i].(api.Draw)
				if ok1 != ok2 {
					t.Fatalf("%s frame %d cmd %d: kind differs", b.Alias, f, i)
				}
				if !ok1 {
					continue
				}
				if len(d1.Data) != len(d2.Data) {
					t.Fatalf("%s frame %d cmd %d: draw size differs", b.Alias, f, i)
				}
				for k := range d1.Data {
					if d1.Data[k] != d2.Data[k] {
						t.Fatalf("%s frame %d cmd %d: vertex %d differs", b.Alias, f, i, k)
					}
				}
			}
		}
	}
}

// Static-camera benchmarks must repeat most drawcall bytes across a 2-frame
// distance (the redundancy RE exploits); mst must repeat almost nothing.
func TestCoherenceClassesAtCommandLevel(t *testing.T) {
	// A drawcall is "effectively identical" across a 2-frame distance when
	// both its vertex payload AND its preceding MVP upload match; 3D
	// workloads animate through per-drawcall constants, 2D workloads
	// through vertex data, and either breaks tile redundancy.
	type unit struct {
		mvp  []api.Command // most recent SetUniforms{First:0} before the draw
		draw api.Draw
	}
	units := func(cmds []api.Command) []unit {
		var out []unit
		var lastMVP api.Command
		for _, c := range cmds {
			switch cc := c.(type) {
			case api.SetUniforms:
				if cc.First == 0 {
					lastMVP = cc
				}
			case api.Draw:
				out = append(out, unit{mvp: []api.Command{lastMVP}, draw: cc})
			}
		}
		return out
	}
	unitEqual := func(a, b unit) bool {
		ua, okA := a.mvp[0].(api.SetUniforms)
		ub, okB := b.mvp[0].(api.SetUniforms)
		if okA != okB {
			return false
		}
		if okA {
			if len(ua.Values) != len(ub.Values) {
				return false
			}
			for k := range ua.Values {
				if ua.Values[k] != ub.Values[k] {
					return false
				}
			}
		}
		if len(a.draw.Data) != len(b.draw.Data) {
			return false
		}
		for k := range a.draw.Data {
			if a.draw.Data[k] != b.draw.Data[k] {
				return false
			}
		}
		return true
	}
	identicalFraction := func(alias string) float64 {
		b, err := ByAlias(alias)
		if err != nil {
			t.Fatal(err)
		}
		p := small()
		p.Frames = 8
		tr := b.Build(p)
		same, total := 0, 0
		for f := 2; f < len(tr.Frames); f++ {
			ua := units(tr.Frames[f].Commands)
			ub := units(tr.Frames[f-2].Commands)
			if len(ua) != len(ub) {
				continue
			}
			for i := range ua {
				total++
				if unitEqual(ua[i], ub[i]) {
					same++
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: no comparable commands", alias)
		}
		return float64(same) / float64(total)
	}

	// Command-level identity is a *lower bound* on tile-level redundancy
	// (a huge draw with one moved sprite still leaves most tiles equal).
	if f := identicalFraction("cde"); f < 0.5 {
		t.Fatalf("cde: identical-command fraction %.2f too low", f)
	}
	if f := identicalFraction("mst"); f > 0.05 {
		t.Fatalf("mst: identical-command fraction %.2f too high", f)
	}
}

func TestStepPathQuantizedAndPeriodic(t *testing.T) {
	x1, y1 := stepPath(3, 20, 0, 0, 100, 50)
	x2, y2 := stepPath(23, 20, 0, 0, 100, 50)
	if x1 != x2 || y1 != y2 {
		t.Fatal("stepPath not periodic")
	}
	if x1 != float32(int(x1)) || y1 != float32(int(y1)) {
		t.Fatal("stepPath not pixel-quantized")
	}
}

func TestStandardProgramsValidate(t *testing.T) {
	for _, p := range StandardPrograms() {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExtrasBuild(t *testing.T) {
	for _, b := range Extras() {
		tr := b.Build(small())
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Alias, err)
		}
	}
}
