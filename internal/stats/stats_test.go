package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "base", "re")
	tb.Add("ccs", 1.0, 0.25)
	tb.Add("longlabel", 1.0, 0.5)
	out := tb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "ccs") {
		t.Fatalf("render missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + underline + header + 2 rows
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "0.250") {
		t.Fatalf("decimals wrong: %q", lines[3])
	}
}

func TestAddAverage(t *testing.T) {
	tb := NewTable("t", "a")
	tb.Add("x", 1)
	tb.Add("y", 3)
	tb.AddAverage()
	last := tb.Rows[len(tb.Rows)-1]
	if last.Label != "AVG" || last.Values[0] != 2 {
		t.Fatalf("avg row = %+v", last)
	}
	empty := NewTable("e", "a")
	empty.AddAverage()
	if len(empty.Rows) != 0 {
		t.Fatal("average of empty table should be a no-op")
	}
}

func TestAddAverageRaggedRows(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Add("x", 2, 4)
	tb.Add("y", 4)
	tb.AddAverage()
	avg := tb.Rows[2].Values
	if avg[0] != 3 || avg[1] != 4 {
		t.Fatalf("ragged avg = %v", avg)
	}
}

func TestNaNRendersDash(t *testing.T) {
	tb := NewTable("t", "a")
	tb.Add("x", math.NaN())
	if !strings.Contains(tb.String(), "-") {
		t.Fatal("NaN should render as dash")
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Add("x", 1.5, math.NaN())
	tb.Add("y", 2)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "label,a,b\nx,1.5,\ny,2,\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestMeanGeoMean(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Fatal("empty aggregates should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean = %v", g)
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Fatal("non-positive geomean should be 0")
	}
}
