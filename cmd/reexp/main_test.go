package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -check passes on the CSVs that -csv wrote at the same scale, and fails
// naming every file that differs, with its first differing row, and every
// file that is missing.
func TestCheckComparesCSVs(t *testing.T) {
	dir := t.TempDir()
	scale := []string{"-width", "64", "-height", "48", "-frames", "4", "-figs", "t1,2,14a", "-log-level", "error"}
	if err := run(append(scale, "-csv", dir), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(scale, "-check", dir), io.Discard); err != nil {
		t.Fatalf("-check on the CSVs -csv just wrote: %v", err)
	}

	fig14a := filepath.Join(dir, "fig14a.csv")
	data, err := os.ReadFile(fig14a)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(string(data), "\n")
	regenerated := rows[2]
	rows[2] = "ccs,1,2,3"
	if err := os.WriteFile(fig14a, []byte(strings.Join(rows, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "fig2.csv")); err != nil {
		t.Fatal(err)
	}
	err = run(append(scale, "-check", dir), io.Discard)
	if err == nil {
		t.Fatal("-check passed with one file edited and one removed")
	}
	for _, want := range []string{
		"2 of 2 figures differ from " + dir,
		fig14a + `: row 3 differs: file has "ccs,1,2,3", regenerated "` + regenerated + `"`,
		filepath.Join(dir, "fig2.csv") + ": missing",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}
