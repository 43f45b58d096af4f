package jobs

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// TestTileWorkersComposition: with Workers unset, the pool divides the host
// CPUs by the effective tile-worker count so the two pools never
// oversubscribe.
func TestTileWorkersComposition(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)

	p := NewPool(WithTileWorkers(4))
	defer p.Close(context.Background())
	want := maxprocs / 4
	if want < 1 {
		want = 1
	}
	if p.Workers() != want {
		t.Errorf("TileWorkers=4: pool workers = %d, want %d", p.Workers(), want)
	}

	// Auto tile workers (one per CPU) leave a single job worker.
	pa := NewPool(WithTileWorkers(-1))
	defer pa.Close(context.Background())
	if pa.Workers() != 1 {
		t.Errorf("TileWorkers=-1: pool workers = %d, want 1", pa.Workers())
	}

	// Explicit Workers always wins.
	pe := NewPool(WithWorkers(3), WithTileWorkers(8))
	defer pe.Close(context.Background())
	if pe.Workers() != 3 {
		t.Errorf("explicit workers: pool workers = %d, want 3", pe.Workers())
	}
}

// TestTileWorkersIdenticalResults: the same spec through a serial pool and a
// tile-parallel pool yields bit-identical results, and the job signature
// (hence the dedup cache key) does not depend on the knob.
func TestTileWorkersIdenticalResults(t *testing.T) {
	s := spec("ccs")

	serial := NewPool(WithWorkers(1))
	defer serial.Close(context.Background())
	js, err := serial.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := js.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	par := NewPool(WithWorkers(1), WithTileWorkers(4))
	defer par.Close(context.Background())
	jp, err := par.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := jp.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if js.Key != jp.Key {
		t.Errorf("tile workers changed the job signature: %s vs %s", js.Key, jp.Key)
	}
	if !reflect.DeepEqual(rs, rp) {
		t.Errorf("tile workers changed results:\n serial %+v\n par    %+v", rs.Total, rp.Total)
	}
}
