package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/metrics"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

func TestSelfTimesNestedAndSiblings(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},    // sibling of b
		{name: "b", start: 40, end: 70, parent: 0},    // sibling of a
		{name: "leaf", start: 50, end: 60, parent: 2}, // nested in b
		{name: "a", start: 80, end: 85, parent: 0},    // a second call of a
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root": {Count: 1, Total: 100, Self: 100 - 20 - 30 - 5},
		"a":    {Count: 2, Total: 25, Self: 25},
		"b":    {Count: 1, Total: 30, Self: 20},
		"leaf": {Count: 1, Total: 10, Self: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	ivs := [][2]int64{{50, 70}, {10, 30}, {20, 40}, {90, 120}}
	// [10,40) and [50,70) inside, [90,120) clipped to [90,100).
	if got := covered(0, 100, ivs); got != 30+20+10 {
		t.Fatalf("covered = %d, want 60", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered with no children = %d, want 0", got)
	}
}

func TestTracerLinksParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	c := tr.begin("c")
	tr.end(c)
	tr.end(b)
	tr.end(root)
	parents := []int32{-1, root, root, b}
	for i, s := range tr.spans {
		if s.parent != parents[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.name, s.parent, parents[i])
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	var off *tracer
	if id := off.begin("x"); id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1) // must not panic
}

// healthyOutcome is a run that passes every per-run gate.
func healthyOutcome() *outcome {
	return &outcome{
		Offered: 4, Completed: 3, Dropped: 1,
		Latencies: []uint64{1, 2, 3},
		PeakCores: 16, CoreLimit: 16,
	}
}

func TestCheckOutcomeGatesFire(t *testing.T) {
	if fails := checkOutcome(healthyOutcome()); len(fails) != 0 {
		t.Fatalf("healthy outcome failed: %v", fails)
	}
	cases := []struct {
		name   string
		doctor func(*outcome)
		want   string
	}{
		{"unbalanced accounting", func(o *outcome) { o.Offered++ }, "accounting: offered"},
		{"lost latency", func(o *outcome) { o.Latencies = o.Latencies[:2] }, "latencies for"},
		{"nothing offered", func(o *outcome) { *o = outcome{} }, "nothing was offered"},
		{"over-commit", func(o *outcome) { o.PeakCores = 17 }, "over-commit"},
	}
	for _, c := range cases {
		o := healthyOutcome()
		c.doctor(o)
		fails := checkOutcome(o)
		if len(fails) == 0 || !strings.Contains(strings.Join(fails, "\n"), c.want) {
			t.Errorf("%s: gates %v, want one containing %q", c.name, fails, c.want)
		}
	}
}

func TestParentGatesCompareRunsOfOneInputSet(t *testing.T) {
	run := func(sub int, mode, digest string, completed int) *childReport {
		return &childReport{Sub: sub, Mode: mode, Digest: digest, Sim: simSummary{Offered: 5, Completed: completed}}
	}
	p := &parent{children: []*childReport{
		run(0, modeUntraced, "aa", 5), run(1, modeUntraced, "bb", 5), run(0, modeTraced, "aa", 5),
	}}
	if fails := p.gates(); len(fails) != 0 {
		t.Fatalf("consistent runs failed: %v", fails)
	}
	p.children = append(p.children, run(1, modeUntraced, "cc", 5))
	if fails := p.gates(); len(fails) != 1 || !strings.Contains(fails[0], "digest") {
		t.Fatalf("digest mismatch gates = %v", fails)
	}
	p.children[3] = run(1, modeUntraced, "bb", 4)
	if fails := p.gates(); len(fails) != 1 || !strings.Contains(fails[0], "simulated outcome") {
		t.Fatalf("outcome mismatch gates = %v", fails)
	}
	p.children[3] = run(1, modeUntraced, "bb", 5)
	p.children[3].Gates = []string{"over-commit: doctored"}
	if fails := p.gates(); len(fails) != 1 || !strings.Contains(fails[0], "over-commit") {
		t.Fatalf("child gate not propagated: %v", fails)
	}
}

func TestPooledTailGate(t *testing.T) {
	o := &pooled{cycleSeconds: 1}
	for v := uint64(1); v <= 1000; v++ {
		o.latencies = append(o.latencies, v)
	}
	if fails := o.gates(); len(fails) != 0 {
		t.Fatalf("1000 samples failed the p99 gate: %v", fails)
	}
	o.latencies = o.latencies[:999] // p99 = 990, nine beyond
	if fails := o.gates(); len(fails) != 1 {
		t.Fatalf("999 samples passed the p99 gate")
	}
}

// pb is a minimal protobuf encoder for canned profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	b.bytesField(field, inner)
}

// cannedProfile builds a CPU profile with known samples: each sample is
// (count, leaf location, caller location).
func cannedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"elasticore/internal/db.(*Engine).Submit",         // 1
		"runtime.mallocgc",                                // 2
		"fmt.Sprintf",                                     // 3
		"elasticore/internal/sched.(*Scheduler).Tick",     // 4
		"main.main",                                       // 5
		"internal/runtime/maps.(*Map).getWithKeySmall",    // 6
		"elasticore/internal/numa.(*Machine).AccessRange", // 7
		"elasticore/internal/experiments.something",       // 8
		"samples", "count", "cpu", "nanoseconds",
	}
	var prof pb
	for i, fn := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		var f pb
		f.varint(1, uint64(i+1)) // function id
		f.varint(2, fn)          // name
		prof.bytesField(5, f.Bytes())
	}
	// Locations 1-7 hold one frame each; location 8 holds numa inlined
	// into sched: the innermost (first) line decides.
	for id := uint64(1); id <= 7; id++ {
		var line, loc pb
		line.varint(1, id)
		loc.varint(1, id)
		loc.bytesField(4, line.Bytes())
		prof.bytesField(4, loc.Bytes())
	}
	{
		var inner, outer, loc pb
		inner.varint(1, 7)
		outer.varint(1, 4)
		loc.varint(1, 9)
		loc.bytesField(4, inner.Bytes())
		loc.bytesField(4, outer.Bytes())
		prof.bytesField(4, loc.Bytes())
	}
	var loc pb // an experiments frame counts as other
	var line pb
	line.varint(1, 8)
	loc.varint(1, 10)
	loc.bytesField(4, line.Bytes())
	prof.bytesField(4, loc.Bytes())

	sample := func(count uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, count, count*10_000_000)
		prof.bytesField(2, s.Bytes())
	}
	sample(5, 1, 5)  // db
	sample(3, 2, 1)  // runtime, though called from db
	sample(2, 3, 5)  // fmt
	sample(4, 4, 5)  // sched
	sample(1, 5)     // main -> other
	sample(6, 6, 1)  // internal/runtime -> runtime
	sample(7, 9, 5)  // numa inlined into sched -> numa
	sample(1, 10, 5) // experiments -> other
	// Unpacked location ids must decode too.
	var s pb
	s.varint(1, 1)
	s.varint(1, 5)
	s.packed(2, 2, 1)
	prof.bytesField(2, s.Bytes())
	for _, str := range strs {
		prof.bytesField(6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	got, total, err := samplesByPackage(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"db": 7, "runtime": 9, "fmt": 2, "sched": 4, "numa": 7, "other": 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples by package = %v, want %v", got, want)
	}
	if total != 31 {
		t.Fatalf("total = %d, want 31", total)
	}
	if _, _, err := samplesByPackage([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"elasticore/internal/db.(*Engine).Submit": "db",
		"elasticore/internal/obs.(*Bus).Publish":  "obs",
		"elasticore/internal/experiments.Run":     "other",
		"runtime.mallocgc":                        "runtime",
		"runtime/internal/atomic.Load":            "runtime",
		"internal/runtime/maps.(*Map).Get":        "runtime",
		"fmt.Fprintf":                             "fmt",
		"sync.(*Mutex).Lock":                      "other",
		"main.(*htapBurst).run.func2":             "other",
		"elasticore/internal/hashmix.Mix64":       "hashmix",
		"elasticore/internal/tpch.HTAPMixer.Plan": "tpch",
		"elasticore/internal/db.glob..func1":      "db",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, want %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, want %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

func TestClosedStreamsAreBalancedAndSeeded(t *testing.T) {
	q, p := closedStreams(7)
	q2, p2 := closedStreams(7)
	if !reflect.DeepEqual(q, q2) || !reflect.DeepEqual(p, p2) {
		t.Fatal("the same seed dealt different streams")
	}
	q3, _ := closedStreams(8)
	if reflect.DeepEqual(q, q3) {
		t.Fatal("different seeds dealt the same streams")
	}
	counts := map[uint64]int{}
	for _, stream := range q {
		if len(stream) != closedPerClient {
			t.Fatalf("stream length %d, want %d", len(stream), closedPerClient)
		}
		for _, n := range stream {
			counts[n]++
		}
	}
	n := closedClients * closedPerClient
	lo, hi := n/tpch.QueryCount, (n+tpch.QueryCount-1)/tpch.QueryCount
	for qn := uint64(1); qn <= tpch.QueryCount; qn++ {
		if counts[qn] < lo || counts[qn] > hi {
			t.Errorf("Q%d dealt %d times, want %d..%d", qn, counts[qn], lo, hi)
		}
	}
}

// The benchmark drives the simulator from its own loops so it can time
// each call; those loops must be the library drivers' loops exactly.

func TestClosedLoopMatchesMultiRigRun(t *testing.T) {
	build := func() *workload.MultiRig {
		m, err := workload.NewMultiRig(workload.MultiOptions{Tenants: []workload.TenantSpec{
			{Name: "gold", SF: 0.002, Seed: 3, Mode: workload.ModeAdaptive, SLA: tenant.SLA{Weight: 4, MinCores: 2}},
			{Name: "silver", SF: 0.002, Seed: 4, Mode: workload.ModeAdaptive, SLA: tenant.SLA{Weight: 2}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	w := &tpchClosed{rig: build()}
	for i := uint64(0); i < 2; i++ {
		q, p := closedStreams(11 + i)
		w.streams = append(w.streams, q)
		w.seeds = append(w.seeds, p)
	}
	out := w.run(newTracer())

	lib := build()
	var loads []workload.TenantLoad
	for ti := range lib.Tenants {
		loads = append(loads, workload.TenantLoad{
			Clients: closedClients, QueriesPerClient: closedPerClient,
			Plan: func(c, k int) *db.Plan { return tpch.Build(int(w.streams[ti][c][k]), w.seeds[ti][c][k]) },
		})
	}
	res, err := lib.Run(loads, 0, maxSimSeconds)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, tr := range res.Tenants {
		completed += tr.Completed
	}
	if completed != out.Completed || res.PeakTotalCores != out.PeakCores {
		t.Fatalf("library: %d completed, peak %d; benchmark: %d, peak %d",
			completed, res.PeakTotalCores, out.Completed, out.PeakCores)
	}
	if !reflect.DeepEqual(lib.Machine.Snapshot(), w.rig.Machine.Snapshot()) || lib.Sched.Stats() != w.rig.Sched.Stats() {
		t.Fatal("the benchmark's closed loop left the machine in a different state than MultiRig.Run")
	}
}

func TestOpenLoopMatchesOpenDriver(t *testing.T) {
	// Half the requests are analytic, so a queue forms and the backlog
	// signal steers the mechanism.
	const n = 1000
	build := func() *htapBurst {
		rig, err := workload.NewRig(workload.Options{SF: 0.002, Seed: 5, Mode: workload.ModeAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		return &htapBurst{
			rig:      rig,
			mixer:    tpch.HTAPMixer{Store: rig.Store, OrderRows: rig.Dataset.Sizes.Orders, Seed: 9, LookupRatio: 0.5},
			proc:     arrivals.NewMMPP(2000, 8000, 20e-3, 5e-3, 13),
			arrivals: n,
		}
	}
	w := build()
	out := w.run(newTracer())
	if out.Counts["workload.peak_queue"] == 0 {
		t.Fatal("no admission queue formed: the backlog signal went unexercised")
	}

	lib := build()
	d := &workload.OpenDriver{
		Rig: lib.rig, Process: lib.proc, MaxInFlight: htapSessions,
		QueueCap: n, MaxArrivals: n, MaxSeconds: maxSimSeconds,
	}
	res := d.Run(func(k int) *db.Plan { return lib.mixer.Plan(0, k) })
	var hist metrics.Histogram
	for _, v := range out.Latencies {
		hist.Record(v)
	}
	if res.Completed != out.Completed || res.Offered != out.Offered || !reflect.DeepEqual(res.Latency, hist) {
		t.Fatalf("library: %d/%d, p99 %d; benchmark: %d/%d, p99 %d",
			res.Completed, res.Offered, res.Latency.P99(), out.Completed, out.Offered, hist.P99())
	}
	if !reflect.DeepEqual(lib.rig.Machine.Snapshot(), w.rig.Machine.Snapshot()) || lib.rig.Sched.Stats() != w.rig.Sched.Stats() {
		t.Fatal("the benchmark's open loop left the machine in a different state than OpenDriver.Run")
	}
}
