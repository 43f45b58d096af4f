package jobs

import (
	"context"
	"log/slog"
	"runtime"
	"testing"
	"time"
)

// TestNewPoolDefaults: NewPool() with no options applies the defaults its
// With* functions document.
func TestNewPoolDefaults(t *testing.T) {
	p := NewPool()
	defer p.Close(context.Background())

	o := p.opts
	wantWorkers := runtime.GOMAXPROCS(0)
	if o.Workers != wantWorkers || o.QueueDepth != 1024 || o.CacheSize != 512 ||
		o.Backoff != 50*time.Millisecond || o.Logger != slog.Default() ||
		o.Timeout != 0 || o.Retries != 0 || o.CheckpointInterval != 0 || o.TileWorkers != 0 ||
		o.Run != nil || o.Fault != nil || o.Journal != nil || o.Store != nil {
		t.Errorf("NewPool() defaults = %+v, want Workers=%d QueueDepth=1024 CacheSize=512 Backoff=50ms "+
			"Logger=slog.Default() and everything else zero", o, wantWorkers)
	}
}
