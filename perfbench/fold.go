package main

import "rendelim/internal/obs"

// spanTotals is a Chrome trace folded into time per span name, in
// microseconds. Self time is a span's duration minus the durations of its
// direct children on the same track; spans on other tracks (the parallel
// raster workers' tracks, say) overlap in time but are not children.
type spanTotals struct {
	self  map[string]float64
	total map[string]float64
	count map[string]int
}

func newSpanTotals() spanTotals {
	return spanTotals{self: map[string]float64{}, total: map[string]float64{}, count: map[string]int{}}
}

// add merges o into t.
func (t spanTotals) add(o spanTotals) {
	for k, v := range o.self {
		t.self[k] += v
	}
	for k, v := range o.total {
		t.total[k] += v
	}
	for k, v := range o.count {
		t.count[k] += v
	}
}

// openSpan is one unclosed span on a track's stack.
type openSpan struct {
	name  string
	start float64
	child float64 // summed durations of closed direct children
}

// foldSpans folds the span events of events[from:] per track. Events must be
// in emission order (obs.Tracer stamps them under one lock, so they are). An
// end with no open span on its track is ignored, as are spans still open at
// the end of the stream; instants, counters and metadata carry no duration.
func foldSpans(events []obs.Event, from int) spanTotals {
	out := newSpanTotals()
	stacks := map[int][]openSpan{}
	for _, e := range events[from:] {
		switch e.Ph {
		case "B":
			stacks[e.TID] = append(stacks[e.TID], openSpan{name: e.Name, start: e.TS})
		case "E":
			st := stacks[e.TID]
			if len(st) == 0 {
				continue
			}
			top := st[len(st)-1]
			st = st[:len(st)-1]
			dur := e.TS - top.start
			out.total[top.name] += dur
			out.self[top.name] += dur - top.child
			out.count[top.name]++
			if len(st) > 0 {
				st[len(st)-1].child += dur
			}
			stacks[e.TID] = st
		}
	}
	return out
}

// frameStart returns the index of the begin event of the simulator's frame
// span for frame index frame, or -1. Folding from there leaves out the
// warm-up frames before it.
func frameStart(events []obs.Event, frame int) int {
	for i, e := range events {
		if e.Ph != "B" || e.Name != "frame" {
			continue
		}
		if v, ok := e.Args["frame"].(int64); ok && v == int64(frame) {
			return i
		}
	}
	return -1
}
