// Package core implements Rendering Elimination (RE), the paper's primary
// contribution: early discard of redundant tiles in a tile-based-rendering
// GPU.
//
// RE observes that the Raster Pipeline's output for a tile is a pure
// function of the tile's inputs — the vertex attributes of every primitive
// overlapping the tile plus the scene constants of their drawcalls. If those
// inputs are identical to the previous frame's, the colors will be too, so
// the tile's entire Raster Pipeline execution (primitive fetch,
// rasterization, early-depth, fragment shading, texturing, blending and the
// flush to the Frame Buffer) can be skipped and the Frame Buffer contents
// reused.
//
// The Controller glues the pieces together the way Figure 5 shows:
//
//   - during the geometry phase it feeds the Signature Unit (internal/sig)
//     with constants blocks from the Command Processor and primitive blocks
//     from the Polygon List Builder, building an incremental CRC32 per tile
//     in the on-chip Signature Buffer;
//   - at raster scheduling it compares each tile's fresh signature with the
//     one of the frame two swaps back (the Back Buffer's producer, Section
//     IV-C) and authorizes the bypass;
//   - it enforces the driver-level disable rules of Section III-E: frames
//     with shader/texture uploads or multiple render targets render
//     normally, uploads invalidate stale baselines, and an optional
//     periodic refresh bounds how long a tile may go unrendered.
package core

import (
	"rendelim/internal/sig"
)

// Config parameterizes the controller.
type Config struct {
	// Sig configures the Signature Unit hardware.
	Sig sig.Config
	// RefreshInterval forces a full render every n-th frame when > 0
	// (Frame Buffer refresh guarantee). 0 disables refreshes.
	RefreshInterval int
}

// Controller is the Rendering Elimination engine for one GPU.
type Controller struct {
	cfg      Config
	unit     *sig.Unit
	frameIdx int
	// disabled marks the current frame as render-everything.
	disabled bool
	// refresh marks the current frame as a forced refresh.
	refresh bool

	// TilesChecked / TilesSkipped count raster-time decisions.
	TilesChecked uint64
	TilesSkipped uint64
}

// New builds a controller for a screen of numTiles tiles.
func New(cfg Config, numTiles int) *Controller {
	return &Controller{cfg: cfg, unit: sig.NewUnit(cfg.Sig, sig.NewBuffer(numTiles))}
}

// Unit exposes the Signature Unit for stats and energy accounting.
func (c *Controller) Unit() *sig.Unit { return c.unit }

// BeginFrame starts a frame's geometry phase.
func (c *Controller) BeginFrame() {
	c.unit.BeginFrame()
	c.disabled = false
	c.refresh = c.cfg.RefreshInterval > 0 && c.frameIdx > 0 &&
		c.frameIdx%c.cfg.RefreshInterval == 0
}

// OnConstants feeds a new scene-constants block (a drawcall's uniform
// updates) into the Signature Unit, opening a constants epoch.
func (c *Controller) OnConstants(block []byte) { c.unit.SetConstants(block) }

// OnPrimitive feeds one binned primitive's attribute block and its
// overlapped tiles. producerCycles is the geometry front-end's delivery
// interval for the primitive (see sig.Unit.AddPrimitive).
func (c *Controller) OnPrimitive(block []byte, tiles []int, producerCycles uint64) {
	c.unit.AddPrimitive(block, tiles, producerCycles)
}

// OnGlobalStateChange reports a change the signature does not cover —
// shader or texture uploads. The frame is disabled and every stored
// baseline is dropped, because "same signature" no longer implies "same
// colors" across the change.
func (c *Controller) OnGlobalStateChange() {
	c.disabled = true
	c.unit.Buffer().InvalidateAll()
}

// DisableFrame forces the current frame to render fully without dropping
// baselines (multiple render targets).
func (c *Controller) DisableFrame() { c.disabled = true }

// Disabled reports whether the current frame bypasses are suppressed.
func (c *Controller) Disabled() bool { return c.disabled }

// ShouldSkip is the raster-scheduling decision for one tile: true when the
// tile's Raster Pipeline execution can be bypassed. It charges the
// signature-compare cost to the Signature Unit's stats.
func (c *Controller) ShouldSkip(tile int) bool {
	if c.disabled {
		return false
	}
	c.TilesChecked++
	redundant := c.unit.CheckTile(tile)
	if redundant && !c.refresh {
		c.TilesSkipped++
		return true
	}
	return false
}

// BaselineMatch exposes the raw signature comparison without charging
// hardware costs or making a decision; the ground-truth classifier of the
// evaluation (Figure 15a) uses it in every technique.
func (c *Controller) BaselineMatch(tile int) (match, valid bool) {
	return c.unit.Buffer().Match(tile)
}

// EndFrame commits the frame's signatures and advances the frame counter.
func (c *Controller) EndFrame() {
	c.unit.EndFrame()
	c.frameIdx++
}

// Snapshot captures the controller's cross-frame state: the Signature Unit
// (buffer contents, datapath counters), the frame counter that drives the
// periodic-refresh policy, and the decision counters.
type Snapshot struct {
	Unit         sig.UnitSnapshot
	FrameIdx     int
	Disabled     bool
	Refresh      bool
	TilesChecked uint64
	TilesSkipped uint64
}

// Snapshot deep-copies the controller state.
func (c *Controller) Snapshot() Snapshot {
	return Snapshot{
		Unit:         c.unit.Snapshot(),
		FrameIdx:     c.frameIdx,
		Disabled:     c.disabled,
		Refresh:      c.refresh,
		TilesChecked: c.TilesChecked,
		TilesSkipped: c.TilesSkipped,
	}
}

// Restore overwrites the controller with a snapshot from an identically
// sized controller.
func (c *Controller) Restore(s Snapshot) {
	c.unit.Restore(s.Unit)
	c.frameIdx = s.FrameIdx
	c.disabled = s.Disabled
	c.refresh = s.Refresh
	c.TilesChecked = s.TilesChecked
	c.TilesSkipped = s.TilesSkipped
}
