package jobs

import (
	"context"
	"log/slog"
	"runtime"
	"testing"
	"time"
)

// withCheckpointPeriod overrides the runner's checkpoint period. Period 0
// checkpoints a recorded job at every frame boundary but the last, so a test
// can place a crash right after a known checkpoint.
func withCheckpointPeriod(d time.Duration) Option {
	return func(o *options) { o.CheckpointPeriod = d }
}

// TestNewPoolDefaults: NewPool() with no options applies the defaults its
// With* functions document.
func TestNewPoolDefaults(t *testing.T) {
	p := NewPool()
	defer p.Close(context.Background())

	o := p.opts
	wantWorkers := runtime.GOMAXPROCS(0)
	if o.Workers != wantWorkers || o.QueueDepth != 1024 || o.CacheSize != 512 ||
		o.Logger != slog.Default() || o.CheckpointPeriod != time.Second ||
		o.Timeout != 0 || o.TileWorkers != 0 ||
		o.Run != nil || o.Store != nil {
		t.Errorf("NewPool() defaults = %+v, want Workers=%d QueueDepth=1024 CacheSize=512 "+
			"Logger=slog.Default() CheckpointPeriod=1s and everything else zero", o, wantWorkers)
	}
}
