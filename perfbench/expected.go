package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// expectedJSON holds, for one seed, every (alias, technique) run's sim
// totals. A run at that seed must reproduce them exactly; regenerate with
// -write-expected after a declared behaviour change.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Seed      int64                       `json:"seed"`
	Workloads map[string]expectedWorkload `json:"workloads"`
}

// expectedWorkload records the window shape the totals were taken with, so
// a changed window is reported instead of compared.
type expectedWorkload struct {
	Width    int                  `json:"width"`
	Height   int                  `json:"height"`
	Window   int                  `json:"window"`
	WarmMin  int                  `json:"warm_min"`
	WarmSpan int                  `json:"warm_span"`
	Runs     map[string]simTotals `json:"runs"`
}

func shapeOf(p batchPlan) expectedWorkload {
	return expectedWorkload{
		Width: batchWidth, Height: batchHeight,
		Window: p.spec.window, WarmMin: p.spec.warmMin, WarmSpan: p.spec.warmSpan,
	}
}

func parseExpected(b []byte) (expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("expected totals: %w", err)
	}
	if f.Workloads == nil {
		f.Workloads = map[string]expectedWorkload{}
	}
	return f, nil
}

// loadExpected returns the totals a run of p must reproduce, or nil when
// they were recorded for another seed or not at all.
func loadExpected(o options, p batchPlan) (*expectedWorkload, error) {
	f, err := parseExpected(expectedJSON)
	if err != nil {
		return nil, err
	}
	w, ok := f.Workloads[o.workload]
	if !ok || f.Seed != o.seed || o.expected != "" {
		return nil, nil
	}
	want := shapeOf(p)
	if w.Width != want.Width || w.Height != want.Height || w.Window != want.Window ||
		w.WarmMin != want.WarmMin || w.WarmSpan != want.WarmSpan {
		return nil, errors.New("expected totals were recorded for another window shape; regenerate them with -write-expected")
	}
	return &w, nil
}

// writeExpected stores the first pass's totals for p's workload in the file
// at path, keeping other workloads' entries when they share the seed.
func writeExpected(path string, p batchPlan, runs map[runKey]simTotals) error {
	f := expectedFile{Seed: p.seed, Workloads: map[string]expectedWorkload{}}
	if b, err := os.ReadFile(path); err == nil {
		if old, err := parseExpected(b); err == nil && old.Seed == p.seed {
			f = old
		}
	}
	w := shapeOf(p)
	w.Runs = map[string]simTotals{}
	for k, t := range runs {
		w.Runs[k.String()] = t
	}
	f.Workloads[p.name] = w
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encode expected totals: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write expected totals: %w", err)
	}
	return nil
}
