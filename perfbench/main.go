// Command perfbench is the repository's benchmark. It drives one of three
// workloads (tpch-closed, htap-burst, fleet-lookup) through the
// simulator's public API, checks the simulated output, and prints every
// metric by name and unit, then one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tpch-closed --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer metrics from traced and profiled runs. Every
// measured run is a fresh child process, so each set-up starts with a
// cold dataset cache, as it does for a user.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is the seed a performance claim must also hold on, beyond
// the seeds it was developed against.
const heldOutSeed = 424242

// runDeadline bounds one benchmark invocation; children still running
// then are killed and the run fails.
const runDeadline = 170 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tpch-closed, htap-burst or fleet-lookup")
	seed := fs.Uint64("seed", 1, "workload seed; inputs are generated from it")
	seconds := fs.Float64("seconds", 30, "host seconds to keep starting measured runs")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for spans and profiles")
	digests := fs.String("digests", "perfbench/digests.json", "reference digests of the parent commit")
	record := fs.Bool("record", false, "record this run's digest as the reference for its seed")
	child := fs.String("child", "", "internal: run one measured child in this mode")
	sub := fs.Int("sub", 0, "internal: the child's input set")
	workers := fs.Int("workers", 0, "internal: fleet worker goroutines (default min(2, nproc))")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := newBench(*name); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *workers <= 0 {
		*workers = min(2, runtime.NumCPU())
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *child != "" {
		rep, err := runChild(*name, *seed, *sub, *child, *workers, *outDir)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	p := &parent{
		name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: *workers, outDir: *outDir,
	}
	return p.run(*digests, *record)
}

// inputSets is how many input sets (sub-seeds of --seed) one invocation
// runs per workload. The simulated metrics pool all of them, so they are
// fixed by the seed alone and steadier than any one input set's.
var inputSets = map[string]int{"tpch-closed": 8, "htap-burst": 14, "fleet-lookup": 6}

// parent runs the measured children of one invocation and aggregates
// them.
type parent struct {
	name     string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
	outDir   string
	children []*childReport
}

// spawn runs one child process to completion and returns its report.
func (p *parent) spawn(ctx context.Context, mode string, sub, workers int) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"--child", mode, "--sub", strconv.Itoa(sub), "--workload", p.name,
		"--seed", strconv.FormatUint(p.seed, 10), "--workers", strconv.Itoa(workers), "--out", p.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child %d: %w", mode, sub, err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return nil, fmt.Errorf("%s child %d: bad report: %w", mode, sub, err)
	}
	return &rep, nil
}

func (p *parent) run(digestPath string, record bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	start := time.Now()

	// An untraced invocation runs every input set once, then keeps
	// repeating them until --seconds have passed. A traced one runs an
	// untraced, a traced and a profiled run of each input set in turn,
	// at least two rounds of them.
	sets := inputSets[p.name]
	cycle, minRuns := []string{modeUntraced}, sets
	if p.trace {
		cycle, minRuns = []string{modeUntraced, modeTraced, modeProfiled}, 6
	}
	for i := 0; i < minRuns || time.Since(start).Seconds() < p.seconds; i++ {
		rep, err := p.spawn(ctx, cycle[i%len(cycle)], (i/len(cycle))%sets, p.workers)
		if err != nil {
			return err
		}
		p.children = append(p.children, rep)
	}
	measured := len(p.children)
	// The parallel fleet engine must reproduce the sequential one.
	if p.name == "fleet-lookup" && p.workers > 1 {
		rep, err := p.spawn(ctx, modeUntraced, 0, 1)
		if err != nil {
			return err
		}
		p.children = append(p.children, rep)
	}

	ref, err := loadDigests(digestPath)
	if err != nil {
		return err
	}
	pool := p.pool()
	gates := p.gates()
	if pool.sets == sets {
		gates = append(gates, pool.gates()...)
	}
	if record && len(gates) == 0 {
		if err := recordDigests(digestPath, ref, p.name, p.seed, p.firstPerSet()); err != nil {
			return err
		}
	}
	p.report(measured, pool, ref, gates)
	res := result{Correct: len(gates) == 0, Metrics: map[string]metricValue{}}
	for _, c := range p.children[:measured] {
		res.Attempted += c.Sim.Offered
		res.Failed += c.Sim.Dropped + c.Sim.Failed + c.Sim.Abandoned
	}
	if res.Correct {
		// A run that failed a gate records no numbers.
		defs := endToEnd
		if p.trace {
			defs = perLayer
		}
		for _, d := range defs {
			res.Metrics[d.Name] = metricValue{Value: p.value(d.Name, measured, pool), Unit: d.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness gates failed")
	}
	return nil
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// firstPerSet returns the first child of each input set that ran, in
// input-set order.
func (p *parent) firstPerSet() []*childReport {
	var out []*childReport
	for sub := 0; sub < inputSets[p.name]; sub++ {
		for _, c := range p.children {
			if c.Sub == sub {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// gates checks the children against each other: every child's own
// gates hold, and every run of one input set — repeats, traced and
// untraced, fleet at one worker and at two — produced the same digest
// and simulated outcome.
func (p *parent) gates() []string {
	var fails []string
	first := map[int]*childReport{}
	for i, c := range p.children {
		for _, g := range c.Gates {
			fails = append(fails, fmt.Sprintf("run %d (%s, input %d): %s", i, c.Mode, c.Sub, g))
		}
		f, ok := first[c.Sub]
		if !ok {
			first[c.Sub] = c
			continue
		}
		if c.Digest != f.Digest {
			fails = append(fails, fmt.Sprintf("input %d: digest %s (%s, workers %d) != %s (%s, workers %d)",
				c.Sub, c.Digest, c.Mode, c.Workers, f.Digest, f.Mode, f.Workers))
		} else if c.Sim != f.Sim {
			fails = append(fails, fmt.Sprintf("input %d: simulated outcome differs between runs with equal digests", c.Sub))
		}
	}
	return fails
}

// pooled is the simulated outcome of an invocation: every input set's
// first run, combined.
type pooled struct {
	sets                                           int
	offered, completed, dropped, failed, abandoned int
	seconds, coreS                                 float64
	htBytes, imcBytes                              uint64
	latencies                                      []uint64 // sorted, cycles
	cycleSeconds                                   float64
	peakCores, coreLimit                           int
}

func (p *parent) pool() *pooled {
	out := &pooled{}
	for _, c := range p.firstPerSet() {
		s := c.Sim
		out.sets++
		out.offered += s.Offered
		out.completed += s.Completed
		out.dropped += s.Dropped
		out.failed += s.Failed
		out.abandoned += s.Abandoned
		out.seconds += s.Seconds
		out.coreS += s.CoreS
		out.htBytes += s.HTBytes
		out.imcBytes += s.IMCBytes
		out.peakCores = max(out.peakCores, s.PeakCores)
		out.coreLimit = s.CoreLimit
		out.latencies = append(out.latencies, c.Latencies...)
		out.cycleSeconds = c.CycleSeconds
	}
	slices.Sort(out.latencies)
	return out
}

// ms returns the p-th percentile latency in simulated milliseconds and
// the number of samples beyond it.
func (o *pooled) ms(p float64) (float64, int) {
	v, beyond := percentile(o.latencies, p)
	return float64(v) * o.cycleSeconds * 1e3, beyond
}

// gates checks the pooled sample: p99 needs ten samples beyond it.
func (o *pooled) gates() []string {
	if _, beyond := o.ms(99); beyond < 10 {
		return []string{fmt.Sprintf("tail: p99 has %d samples beyond it, want at least 10", beyond)}
	}
	return nil
}

// hostMetrics are the metrics measured on the host, each read from one
// untraced run; an invocation reports their median over those runs.
// Throughput and set-up are counted in CPU seconds: on a shared host the
// wall clock also measures the neighbours, and ten-seed spreads of the
// wall-clock figures reached a quarter where the CPU-time ones stayed
// near 5%. The wall-clock figures are reported per layer.
var hostMetrics = map[string]func(*childReport) float64{
	"sim_mcycles_per_cpu_s":   func(c *childReport) float64 { return float64(c.SimCycles) / c.RunCPUS / 1e6 },
	"host.wall_mcycles_per_s": func(c *childReport) float64 { return float64(c.SimCycles) / c.RunS / 1e6 },
	"setup_s":                 func(c *childReport) float64 { return c.SetupCPUS },
	"workload.setup_s":        func(c *childReport) float64 { return c.SetupS },
	"max_rss_mb":              func(c *childReport) float64 { return c.MaxRSSMB },
}

// value aggregates one metric over the measured children.
func (p *parent) value(name string, measured int, o *pooled) float64 {
	runs := p.children[:measured]
	collect := func(mode string, f func(*childReport) float64) float64 {
		var xs []float64
		for _, c := range runs {
			if mode == "" || c.Mode == mode {
				xs = append(xs, f(c))
			}
		}
		return median(xs)
	}
	if f, ok := hostMetrics[name]; ok {
		return collect(modeUntraced, f)
	}
	switch name {
	case "sim_qps":
		return float64(o.completed) / o.seconds
	case "sim_p50_ms":
		v, _ := o.ms(50)
		return v
	case "sim_p99_ms":
		v, _ := o.ms(99)
		return v
	case "sim_core_s":
		return o.coreS / float64(o.sets)
	case "trace.overhead_ratio":
		traced := collect(modeTraced, func(c *childReport) float64 { return c.RunS })
		return traced / collect(modeUntraced, func(c *childReport) float64 { return c.RunS })
	case "profile.samples":
		return float64(profileTotal(runs))
	}
	if pkg, ok := strings.CutSuffix(name, ".cpu_share"); ok {
		total := profileTotal(runs)
		if total == 0 {
			return 0
		}
		var n int64
		for _, c := range runs {
			n += c.Profile[pkg]
		}
		return float64(n) / float64(total)
	}
	if slices.Contains(spanMetrics, name) {
		return collect(modeTraced, func(c *childReport) float64 { return c.Layers[name] })
	}
	if strings.HasPrefix(name, "gc.") {
		return collect(modeUntraced, func(c *childReport) float64 { return c.Layers[name] })
	}
	// Exact counters are deterministic per input set: report input set 0.
	return runs[0].Layers[name]
}

func profileTotal(runs []*childReport) int64 {
	var total int64
	for _, c := range runs {
		for _, n := range c.Profile {
			total += n
		}
	}
	return total
}
