package main

import (
	"math"
	"regexp"
	"sort"
)

// metrics.go names every number the benchmark reports. BENCHMARK.json
// lists the same names, units and directions (a test keeps them equal).

// metricDef is one reported metric. Moves records, for a per-layer
// metric, which end-to-end metric it should move and on which workload.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are the metrics a user of the simulator sees, reported by
// untraced runs.
var endToEnd = []metricDef{
	{Name: "sim_mcycles_per_cpu_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "sim_qps", Unit: "1/s", Better: "higher"},
	{Name: "sim_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_core_s", Unit: "s", Better: "lower"},
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.wall_mcycles_per_s", "Mcycles/s", "higher", "wall-clock twin of sim_mcycles_per_cpu_s on every workload"},
		{"sched.tick_us", "us", "lower", "sim_mcycles_per_cpu_s, most on tpch-closed"},
		{"sched.ticks", "count", "lower", "sim_mcycles_per_cpu_s, most on tpch-closed"},
		{"elastic.step_us", "us", "lower", "sim_mcycles_per_cpu_s on htap-burst"},
		{"elastic.transitions", "count", "lower", "sim_core_s and sim_p99_ms on htap-burst"},
		{"tenant.step_us", "us", "lower", "sim_mcycles_per_cpu_s on tpch-closed"},
		{"tenant.grants", "count", "lower", "sim_core_s on tpch-closed"},
		{"workload.admission_us", "us", "lower", "sim_mcycles_per_cpu_s on htap-burst"},
		{"workload.peak_queue", "count", "lower", "sim_p99_ms on htap-burst"},
		{"workload.queue_wait_p99_ms", "ms", "lower", "sim_p99_ms on htap-burst"},
		{"arrivals.next_ns", "ns", "lower", "sim_mcycles_per_cpu_s on htap-burst"},
		{"arrivals.max_lag_us", "us", "lower", "sim_p99_ms on htap-burst"},
		{"tpch.plan_us", "us", "lower", "sim_mcycles_per_cpu_s on htap-burst and fleet-lookup"},
		{"db.submit_us", "us", "lower", "sim_mcycles_per_cpu_s on tpch-closed"},
		{"db.release_us", "us", "lower", "sim_mcycles_per_cpu_s on tpch-closed"},
		{"db.queries", "count", "higher", "sim_qps on every workload"},
		{"cluster.run_s", "s", "lower", "sim_mcycles_per_cpu_s on fleet-lookup"},
		{"cluster.us_per_tick", "us", "lower", "sim_mcycles_per_cpu_s on fleet-lookup"},
		{"cluster.rebalances", "count", "lower", "sim_core_s on fleet-lookup"},
		{"cluster.route_imbalance", "ratio", "lower", "sim_p99_ms on fleet-lookup"},
		{"workload.setup_s", "s", "lower", "wall-clock twin of setup_s, most on tpch-closed"},
		{"numa.ht_imc_ratio", "ratio", "lower", "NUMA friendliness (Section V-B); sim_qps on tpch-closed"},
		{"numa.l3_hit_ratio", "ratio", "higher", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"numa.ht_mb", "MB", "lower", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"numa.imc_mb", "MB", "lower", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"numa.minor_faults", "count", "lower", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"sched.migrations", "count", "lower", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"sched.cross_node_migrations", "count", "lower", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"sched.stolen_tasks", "count", "lower", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"sched.spawned", "count", "lower", "numa.ht_imc_ratio and sim_qps on tpch-closed"},
		{"obs.events", "count", "lower", "sim_mcycles_per_cpu_s on fleet-lookup"},
		{"obs.drop_ratio", "ratio", "lower", "sim_mcycles_per_cpu_s on fleet-lookup"},
		{"gc.alloc_mb", "MB", "lower", "max_rss_mb and sim_mcycles_per_cpu_s on every workload"},
		{"gc.mallocs", "count", "lower", "max_rss_mb and sim_mcycles_per_cpu_s on every workload"},
		{"gc.cycles", "count", "lower", "max_rss_mb and sim_mcycles_per_cpu_s on every workload"},
		{"gc.pause_ms", "ms", "lower", "max_rss_mb and sim_mcycles_per_cpu_s on every workload"},
	}
	for _, p := range append(append([]string(nil), profilePackages...), "other") {
		defs = append(defs, metricDef{p + ".cpu_share", "ratio", "lower",
			"sim_mcycles_per_cpu_s; db largest on tpch-closed, sched larger on htap-burst"})
	}
	return append(defs,
		metricDef{"profile.samples", "count", "higher", "sample count behind the cpu_share values"},
		metricDef{"trace.overhead_ratio", "ratio", "lower", "none: traced over untraced run wall time"},
	)
}()

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the sorted samples and how many samples lie strictly beyond it.
func percentile(sorted []uint64, p float64) (value uint64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	value = sorted[rank-1]
	for _, v := range sorted[rank:] {
		if v > value {
			beyond++
		}
	}
	return value, beyond
}
