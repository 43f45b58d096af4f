package core

import (
	"testing"

	"rendelim/internal/sig"
)

func newCtl(tiles, refresh int) *Controller {
	return New(Config{Sig: sig.DefaultConfig(), RefreshInterval: refresh}, tiles)
}

// playFrame feeds one synthetic frame: a constants block and two primitives.
func playFrame(c *Controller, constants string, primA, primB string) {
	c.BeginFrame()
	c.OnConstants([]byte(constants))
	c.OnPrimitive([]byte(primA), []int{0, 1}, 40)
	c.OnPrimitive([]byte(primB), []int{2, 3}, 40)
}

func TestSkipAfterTwoIdenticalFrames(t *testing.T) {
	c := newCtl(4, 0)
	for f := 0; f < 2; f++ {
		playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
		for tile := 0; tile < 4; tile++ {
			if c.ShouldSkip(tile) {
				t.Fatalf("frame %d tile %d skipped without a baseline", f, tile)
			}
		}
		c.EndFrame()
	}
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	for tile := 0; tile < 4; tile++ {
		if !c.ShouldSkip(tile) {
			t.Fatalf("tile %d should skip on identical frame 2", tile)
		}
	}
	if c.TilesSkipped != 4 || c.TilesChecked != 12 {
		t.Fatalf("decision counters: %+v / %+v", c.TilesSkipped, c.TilesChecked)
	}
}

func TestChangedConstantsBlockSkipping(t *testing.T) {
	c := newCtl(4, 0)
	playFrame(c, "consts-0", "prim-aaaa", "prim-bbbb")
	c.EndFrame()
	playFrame(c, "consts-0", "prim-aaaa", "prim-bbbb")
	c.EndFrame()
	playFrame(c, "consts-X", "prim-aaaa", "prim-bbbb")
	for tile := 0; tile < 4; tile++ {
		if c.ShouldSkip(tile) {
			t.Fatalf("tile %d skipped despite changed constants", tile)
		}
	}
}

func TestPartialChangeSkipsOnlyUnchangedTiles(t *testing.T) {
	c := newCtl(4, 0)
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	c.EndFrame()
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	c.EndFrame()
	playFrame(c, "consts", "prim-aaaa", "prim-MOVED")
	if !c.ShouldSkip(0) || !c.ShouldSkip(1) {
		t.Fatal("unchanged tiles 0,1 should skip")
	}
	if c.ShouldSkip(2) || c.ShouldSkip(3) {
		t.Fatal("changed tiles 2,3 must render")
	}
}

func TestGlobalStateChangeDropsBaselines(t *testing.T) {
	c := newCtl(4, 0)
	for f := 0; f < 2; f++ {
		playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
		c.EndFrame()
	}
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	c.OnGlobalStateChange()
	if !c.Disabled() {
		t.Fatal("upload should disable the frame")
	}
	if c.ShouldSkip(0) {
		t.Fatal("disabled frame must not skip")
	}
	c.EndFrame()
	// Next frame: baseline (pre-upload frame) was invalidated.
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	if c.ShouldSkip(0) {
		t.Fatal("stale baseline used after upload")
	}
	c.EndFrame()
	// Two frames after the upload, post-upload baselines are valid again.
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	if !c.ShouldSkip(0) {
		t.Fatal("RE should resume two frames after the upload")
	}
}

func TestDisableFrameKeepsBaselines(t *testing.T) {
	c := newCtl(4, 0)
	for f := 0; f < 2; f++ {
		playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
		c.EndFrame()
	}
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	c.DisableFrame()
	if c.ShouldSkip(0) {
		t.Fatal("MRT frame must render")
	}
	c.EndFrame()
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	if !c.ShouldSkip(0) {
		t.Fatal("baselines should survive a plain disable")
	}
}

func TestRefreshInterval(t *testing.T) {
	c := newCtl(4, 3)
	skips := make([]bool, 9)
	for f := 0; f < 9; f++ {
		playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
		skips[f] = c.ShouldSkip(0)
		c.EndFrame()
	}
	// Frames 3 and 6 are refreshes; 2,4,5,7,8 skip.
	for f, want := range []bool{false, false, true, false, true, true, false, true, true} {
		if skips[f] != want {
			t.Fatalf("frame %d skip=%v, want %v (refresh interval)", f, skips[f], want)
		}
	}
}

func TestBaselineMatchDoesNotDecide(t *testing.T) {
	c := newCtl(4, 0)
	playFrame(c, "consts", "prim-aaaa", "prim-bbbb")
	if _, valid := c.BaselineMatch(0); valid {
		t.Fatal("no baseline should exist in frame 0")
	}
	if c.TilesChecked != 0 {
		t.Fatal("BaselineMatch must not count as a decision")
	}
}

func TestGeometryOverheadExposed(t *testing.T) {
	c := newCtl(512, 0)
	c.BeginFrame()
	tiles := make([]int, 512)
	for i := range tiles {
		tiles[i] = i
	}
	c.OnPrimitive(make([]byte, 144), tiles, 40)
	if c.Unit().Stats.StallCycles == 0 {
		t.Fatal("full-screen primitive should stall the OT queue")
	}
}
