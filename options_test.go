package rendelim_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"rendelim"
)

// TestOptionsEquivalence: selecting a technique by option and passing a
// whole Config that selects it must produce identical results.
func TestOptionsEquivalence(t *testing.T) {
	tr, err := rendelim.Build("ccs", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []rendelim.Technique{rendelim.Baseline, rendelim.RE, rendelim.TE, rendelim.Memo} {
		opt, err := rendelim.Run(tr, rendelim.WithTechnique(tech))
		if err != nil {
			t.Fatal(err)
		}
		cfg := rendelim.DefaultConfig()
		cfg.Technique = tech
		whole, err := rendelim.Run(tr, rendelim.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opt, whole) {
			t.Errorf("%s: WithTechnique and WithConfig disagree:\n opt %+v\n cfg %+v", tech, opt.Total, whole.Total)
		}
	}
}

// TestOptionsCompose: options apply in order on top of DefaultConfig, and
// WithConfig replaces the base while later options still apply.
func TestOptionsCompose(t *testing.T) {
	tr, err := rendelim.Build("ccs", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := rendelim.DefaultConfig()
	cfg.Technique = rendelim.TE // overridden by the option after WithConfig
	res, err := rendelim.Run(tr, rendelim.WithConfig(cfg), rendelim.WithTechnique(rendelim.RE))
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != rendelim.RE {
		t.Errorf("later WithTechnique did not override WithConfig: got %s", res.Technique)
	}
}

// TestWithTileWorkersIdenticalResults: the worker count is host parallelism
// only and must never change results, via the public API too.
func TestWithTileWorkersIdenticalResults(t *testing.T) {
	tr, err := rendelim.Build("abi", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.RE))
	if err != nil {
		t.Fatal(err)
	}
	par, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.RE), rendelim.WithTileWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("WithTileWorkers(8) changed results:\n serial %+v\n par    %+v", serial.Total, par.Total)
	}
}

// TestRunContextCancellation: a cancelled context stops the run at the next
// frame boundary and surfaces ctx.Err alongside the partial result.
func TestRunContextCancellation(t *testing.T) {
	tr, err := rendelim.Build("ccs", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rendelim.RunContext(ctx, tr, rendelim.WithTechnique(rendelim.Baseline))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Frames) != 0 {
		t.Errorf("pre-cancelled run simulated %d frames", len(res.Frames))
	}

	full, err := rendelim.RunContext(context.Background(), tr, rendelim.WithTechnique(rendelim.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Frames) != tinyParams().Frames {
		t.Errorf("uncancelled run simulated %d frames, want %d", len(full.Frames), tinyParams().Frames)
	}
}

// TestSentinelErrors: the exported sentinels match with errors.Is, so
// callers never string-match.
func TestSentinelErrors(t *testing.T) {
	if _, err := rendelim.Build("no-such-game", rendelim.DefaultParams()); !errors.Is(err, rendelim.ErrUnknownBenchmark) {
		t.Errorf("Build: err = %v, want ErrUnknownBenchmark", err)
	}

	if _, err := rendelim.DecodeTrace(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, rendelim.ErrBadTrace) {
		t.Errorf("DecodeTrace: err = %v, want ErrBadTrace", err)
	}

	tr, err := rendelim.Build("ccs", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	bad := rendelim.DefaultConfig()
	bad.MemoLUTEntries = -1
	if _, err := rendelim.NewSimulator(tr, rendelim.WithConfig(bad)); !errors.Is(err, rendelim.ErrBadConfig) {
		t.Errorf("NewSimulator: err = %v, want ErrBadConfig", err)
	}
	if _, err := rendelim.Run(tr, rendelim.WithConfig(bad)); !errors.Is(err, rendelim.ErrBadConfig) {
		t.Errorf("Run: err = %v, want ErrBadConfig", err)
	}
}

// TestWithTracerOption: WithTracer records a timeline without changing
// results.
func TestWithTracerOption(t *testing.T) {
	tr, err := rendelim.Build("ccs", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	tracer := rendelim.NewTracer()
	traced, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.RE), rendelim.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	if tracer.Len() == 0 {
		t.Error("WithTracer recorded no events")
	}
	plain, err := rendelim.Run(tr, rendelim.WithTechnique(rendelim.RE))
	if err != nil {
		t.Fatal(err)
	}
	if traced.Total != plain.Total {
		t.Error("tracing changed results")
	}
}
