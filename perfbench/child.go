package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"elasticore/internal/numa"
)

// child.go is one measured run: a fresh process builds the workload
// with a cold tpch dataset cache (timed as set-up), drives it once
// (timed as the run) and reports one JSON line. The parent starts these
// processes one after another and aggregates them.

// Child modes.
const (
	modeUntraced = "untraced" // plain run: end-to-end metrics
	modeProfiled = "profiled" // plain run under a CPU profile: package shares
	modeTraced   = "traced"   // spans around every public call: layer times
)

// childReport is what one child prints.
type childReport struct {
	Workload string
	Mode     string
	// Sub is the index of the run's input set among the invocation's
	// sub-seeds; Workers the fleet's worker goroutines.
	Sub, Workers int
	// SetupS and RunS are host wall seconds, SetupCPUS and RunCPUS the
	// CPU seconds (user and system, all threads) of the same spans;
	// SimCycles the simulated cycles every machine advanced during the
	// run; MaxRSSMB the process's peak resident memory.
	SetupS, RunS       float64
	SetupCPUS, RunCPUS float64
	SimCycles          uint64
	MaxRSSMB           float64
	Digest             string
	// Gates lists every failed correctness check; empty when all hold.
	Gates []string
	Sim   simSummary
	// Latencies are the per-request simulated latencies in cycles;
	// CycleSeconds converts cycles to seconds.
	Latencies    []uint64
	CycleSeconds float64
	// Layers holds per-layer numbers; span-derived ones only in traced
	// children.
	Layers map[string]float64
	// Profile sums CPU-profile samples by package (profiled children).
	Profile map[string]int64
}

// simSummary is the simulated outcome of a run. It is deterministic:
// every run of one input set reports the same values.
type simSummary struct {
	Offered, Completed, Dropped, Failed, Abandoned int
	Seconds, CoreS                                 float64
	HTBytes, IMCBytes                              uint64
	PeakCores, CoreLimit                           int
}

// runChild measures one run of the workload and returns its report.
func runChild(name string, seed uint64, sub int, mode string, workers int, outDir string) (*childReport, error) {
	w, err := newBench(name)
	if err != nil {
		return nil, err
	}
	rep := &childReport{Workload: name, Mode: mode, Sub: sub, Workers: workers, Layers: map[string]float64{}}

	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	start := time.Now()
	if err := w.setup(subSeed(seed, sub), workers); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.SetupS = time.Since(start).Seconds()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.SetupCPUS = cpuSeconds(ru1) - cpuSeconds(ru0)

	var tr *tracer
	if mode == modeTraced {
		tr = newTracer()
	}
	profPath := filepath.Join(outDir, name+".pprof")
	if mode == modeProfiled {
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer f.Close()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	cycles0 := numa.SimulatedCycles()
	start = time.Now()
	out := w.run(tr)
	rep.RunS = time.Since(start).Seconds()
	rep.SimCycles = numa.SimulatedCycles() - cycles0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	if mode == modeProfiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	out.finish()
	rep.RunCPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	rep.MaxRSSMB = float64(ru1.Maxrss) / 1024 // Linux reports KiB

	rep.Digest = fmt.Sprintf("%016x", out.Digest)
	rep.Sim = simSummary{
		Offered: out.Offered, Completed: out.Completed, Dropped: out.Dropped,
		Failed: out.Failed, Abandoned: out.Abandoned,
		Seconds:   float64(out.SimCycles) * out.CycleSeconds,
		CoreS:     out.CoreCycles * out.CycleSeconds,
		HTBytes:   out.Window.TotalHTBytes(),
		IMCBytes:  out.Window.TotalIMCBytes(),
		PeakCores: out.PeakCores,
		CoreLimit: out.CoreLimit,
	}
	rep.Latencies, rep.CycleSeconds = out.Latencies, out.CycleSeconds
	rep.Gates = checkOutcome(out)
	rep.layerCounts(out, &ms0, &ms1)
	if tr != nil {
		rep.layerTimes(selfTimes(tr.spans), out.Counts)
		if err := writeSpans(filepath.Join(outDir, name+".spans.tsv"), tr.spans); err != nil {
			return nil, err
		}
	}
	if mode == modeProfiled {
		data, err := os.ReadFile(profPath)
		if err != nil {
			return nil, err
		}
		if rep.Profile, _, err = samplesByPackage(data); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkOutcome applies the per-run correctness gates and returns every
// failure.
func checkOutcome(out *outcome) []string {
	var fails []string
	if sum := out.Completed + out.Dropped + out.Failed + out.Abandoned; sum != out.Offered {
		fails = append(fails, fmt.Sprintf("accounting: offered %d != completed %d + dropped %d + failed %d + abandoned %d",
			out.Offered, out.Completed, out.Dropped, out.Failed, out.Abandoned))
	}
	if out.Offered == 0 {
		fails = append(fails, "accounting: nothing was offered")
	}
	if len(out.Latencies) != out.Completed {
		fails = append(fails, fmt.Sprintf("accounting: %d latencies for %d completions", len(out.Latencies), out.Completed))
	}
	if out.PeakCores > out.CoreLimit {
		fails = append(fails, fmt.Sprintf("over-commit: peak %d cores held, limit %d", out.PeakCores, out.CoreLimit))
	}
	return fails
}

// cpuSeconds returns the user plus system time of a resource usage.
func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// layerCounts records the exact per-layer counters of a run.
func (r *childReport) layerCounts(out *outcome, ms0, ms1 *runtime.MemStats) {
	const mb = 1 << 20
	l := r.Layers
	for k, v := range out.Counts {
		l[k] = v
	}
	w := out.Window
	var hits, misses uint64
	for _, n := range w.Nodes {
		hits += n.L3Hits
		misses += n.L3Misses
	}
	if hits+misses > 0 {
		l["numa.l3_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	l["numa.ht_imc_ratio"] = w.HTIMCRatio()
	l["numa.ht_mb"] = float64(w.TotalHTBytes()) / mb
	l["numa.imc_mb"] = float64(w.TotalIMCBytes()) / mb
	l["numa.minor_faults"] = float64(w.TotalMinorFaults())
	l["sched.ticks"] = float64(out.Sched.TicksRun)
	l["sched.migrations"] = float64(out.Sched.Migrations)
	l["sched.cross_node_migrations"] = float64(out.Sched.CrossNodeMigrations)
	l["sched.stolen_tasks"] = float64(out.Sched.StolenTasks)
	l["sched.spawned"] = float64(out.Sched.Spawned)
	if total := out.Counts["obs.events"]; total > 0 {
		l["obs.drop_ratio"] = out.Counts["obs.dropped"] / total
	}
	if lag, ok := out.Counts["arrivals.max_lag_cycles"]; ok {
		l["arrivals.max_lag_us"] = lag * out.CycleSeconds * 1e6
	}
	if len(out.QueueWaits) > 0 {
		waits := slices.Clone(out.QueueWaits)
		slices.Sort(waits)
		p99, _ := percentile(waits, 99)
		l["workload.queue_wait_p99_ms"] = float64(p99) * out.CycleSeconds * 1e3
	}
	l["gc.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mb
	l["gc.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	l["gc.cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
}

// spanMetrics are the per-layer metrics taken from spans, so only traced
// children report them.
var spanMetrics = []string{
	"sched.tick_us", "elastic.step_us", "tenant.step_us", "workload.admission_us",
	"arrivals.next_ns", "tpch.plan_us", "db.submit_us", "db.release_us",
	"cluster.run_s", "cluster.us_per_tick",
}

// layerTimes derives the span-based per-layer metrics. A layer the
// workload never calls into reports 0.
func (r *childReport) layerTimes(lt map[string]layerTime, counts map[string]float64) {
	l := r.Layers
	meanUs := func(name string) float64 {
		t := lt[name]
		if t.Count == 0 {
			return 0
		}
		return float64(t.Total) / float64(t.Count) / 1e3
	}
	per := func(ns int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / n / 1e3
	}
	l["sched.tick_us"] = meanUs("sched.tick")
	// Maybe is called every tick and steps once per control period: its
	// total time is charged to the steps it took.
	l["elastic.step_us"] = per(lt["elastic.maybe"].Total, counts["elastic.steps"])
	l["tenant.step_us"] = per(lt["tenant.maybe"].Total, counts["tenant.rounds"])
	// Offer, Fill and Collect self time (Fill's plan-building child span
	// excluded), per offered request.
	adm := lt["workload.offer"].Self + lt["workload.fill"].Self + lt["workload.collect"].Self
	l["workload.admission_us"] = per(adm, float64(lt["workload.offer"].Count))
	l["arrivals.next_ns"] = meanUs("arrivals.next") * 1e3
	l["tpch.plan_us"] = meanUs("tpch.plan")
	l["db.submit_us"] = meanUs("db.submit")
	l["db.release_us"] = meanUs("db.release")
	run := lt["cluster.run"]
	l["cluster.run_s"] = float64(run.Total) / 1e9
	l["cluster.us_per_tick"] = per(run.Total, counts["cluster.ticks"])
}
