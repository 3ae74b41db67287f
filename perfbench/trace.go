package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// trace.go is the benchmark's span recorder. The traced run wraps every
// public call it makes into a layer (Scheduler.Tick, Mechanism.Maybe,
// Admission.Offer, Engine.Submit, ...) in a span: name, start, end and
// the enclosing span. Spans stay in memory and are written out once the
// run ends; the per-layer numbers are computed from them afterwards.
// An untraced run passes a nil *tracer, whose methods return at once.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the enclosing span, -1 at the root
}

// tracer records spans on one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32 // stack of spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// layerTime is the aggregate of every span sharing one name.
type layerTime struct {
	Count int
	// Total is the summed span duration and Self the summed self time,
	// both in nanoseconds.
	Total, Self int64
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its direct children
// (overlapping children are merged, so no instant is subtracted twice).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		dur := s.end - s.start
		lt := out[s.name]
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(s.start, s.end, children[int32(i)])
		out[s.name] = lt
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo // everything before cur is already counted or outside
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSpans writes the spans as tab-separated lines (id, parent, name,
// start ns, end ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
