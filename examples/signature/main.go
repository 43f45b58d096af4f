// Signature-unit walkthrough: drive Rendering Elimination's Signature Unit
// directly with a synthetic command stream — no GPU simulation — to watch
// incremental CRC32 tile signatures detect a moved sprite. This is the
// paper's Figure 6 example made executable.
//
//	go run ./examples/signature
package main

import (
	"fmt"

	"rendelim/internal/sig"
)

func main() {
	// A 4-tile screen, as in Figure 6.
	u := sig.NewUnit(sig.DefaultConfig(), sig.NewBuffer(4))

	constantsF := []byte("drawcall-F-constants")
	constantsS := []byte("drawcall-S-constants")
	primC := []byte("primitive-C-attributes-48-bytes-of-vertex-data!!")
	primA := []byte("primitive-A-attributes-48-bytes-of-vertex-data!!")
	primB := []byte("primitive-B-attributes-48-bytes-of-vertex-data!!")

	frame := func(primAMoved bool) {
		u.BeginFrame()
		// Drawcall F: primitive C overlaps tiles 0 and 2.
		u.SetConstants(constantsF)
		u.AddPrimitive(primC, []int{0, 2}, 40)
		// Drawcall S: primitives A and B overlap tiles 1 and 3; A also
		// overlaps tile 2 (Figure 6's layout).
		u.SetConstants(constantsS)
		a := primA
		if primAMoved {
			a = []byte("primitive-A-attributes-MOVED-vertex-data-here!!!")
		}
		u.AddPrimitive(a, []int{1, 3, 2}, 40)
		u.AddPrimitive(primB, []int{1, 3}, 40)
	}

	report := func(label string) {
		fmt.Printf("%-28s", label)
		for tile := 0; tile < 4; tile++ {
			sigv := u.Buffer().Load(tile)
			match, valid := u.Buffer().Match(tile)
			state := "render (no baseline)"
			if valid && match {
				state = "SKIP"
			} else if valid {
				state = "render"
			}
			fmt.Printf("  tile%d=%08x %-7s", tile, sigv, state)
		}
		fmt.Println()
	}

	fmt.Println("Frame 0 and 1: warm-up (double-buffered, compare two frames back)")
	frame(false)
	report("frame 0")
	u.EndFrame()
	frame(false)
	report("frame 1")
	u.EndFrame()

	fmt.Println("\nFrame 2: identical inputs -> every tile redundant")
	frame(false)
	report("frame 2")
	u.EndFrame()

	fmt.Println("\nFrame 3: primitive A moved -> only its tiles (1, 2, 3) re-render")
	frame(true)
	report("frame 3")
	u.EndFrame()

	st := u.Stats
	compute, accumulate := u.CRCStats()
	fmt.Printf("\nSignature Unit activity: %d primitive blocks, %d constants blocks,\n",
		st.PrimBlocks, st.ConstBlocks)
	fmt.Printf("%d tile updates, %d CRC-LUT reads, %d cycles busy, %d stall cycles\n",
		st.TileUpdates, compute.LUTAccesses+accumulate.LUTAccesses,
		st.BusyCycles, st.StallCycles)
	fmt.Printf("Signature Buffer: %d bytes of on-chip SRAM for %d tiles\n",
		u.Buffer().SizeBytes(), u.Buffer().NumTiles())
}
