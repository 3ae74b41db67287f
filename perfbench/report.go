package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// report.go prints the human-readable part of a result: the host, every
// metric with its unit and sample count, the gates, and the digest
// beside the parent commit's reference digest for the same seed.

// referenceDigests maps workload -> seed -> the digest of each input
// set, as the parent commit produced them.
type referenceDigests map[string]map[string][]string

func loadDigests(path string) (referenceDigests, error) {
	ref := referenceDigests{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return ref, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

func recordDigests(path string, ref referenceDigests, name string, seed uint64, runs []*childReport) error {
	if ref[name] == nil {
		ref[name] = map[string][]string{}
	}
	var ds []string
	for _, c := range runs {
		ds = append(ds, c.Digest)
	}
	ref[name][strconv.FormatUint(seed, 10)] = ds
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quartiles returns the first and third quartile of xs (exclusive
// method, as Python's statistics.quantiles); NaN below two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, interpolated
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

func (p *parent) report(measured int, o *pooled, ref referenceDigests, gates []string) {
	runs := p.children[:measured]
	fmt.Printf("perfbench %s seed=%d trace=%v (held-out seed: %d)\n", p.name, p.seed, p.trace, heldOutSeed)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d fleet-workers=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), p.workers, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	counts := map[string]int{}
	for _, c := range p.children {
		counts[fmt.Sprintf("%s@workers=%d", c.Mode, c.Workers)]++
	}
	fmt.Printf("runs: %v, each a fresh process: cold set-up, then one full run of one input set\n", counts)

	if !p.trace {
		fmt.Println("end-to-end, host (median over runs):")
		for _, name := range []string{"sim_mcycles_per_cpu_s", "host.wall_mcycles_per_s", "setup_s", "workload.setup_s", "max_rss_mb"} {
			var xs []float64
			for _, c := range runs {
				xs = append(xs, hostMetrics[name](c))
			}
			q1, q3 := quartiles(xs)
			fmt.Printf("  %-23s %12.4f %-10s %d runs, q1 %.4f, q3 %.4f\n", name, median(xs), unitOf(name), len(xs), q1, q3)
		}
	}
	fmt.Printf("end-to-end, simulated (%d of %d input sets pooled, %.4f simulated s):\n",
		o.sets, inputSets[p.name], o.seconds)
	p50, _ := o.ms(50)
	p99, beyond := o.ms(99)
	fmt.Printf("  %-18s %12.4f %-10s %d completed\n", "sim_qps", float64(o.completed)/o.seconds, "1/s", o.completed)
	fmt.Printf("  %-18s %12.4f %-10s %d samples\n", "sim_p50_ms", p50, "ms", len(o.latencies))
	fmt.Printf("  %-18s %12.4f %-10s %d samples, %d beyond\n", "sim_p99_ms", p99, "ms", len(o.latencies), beyond)
	fmt.Printf("  %-18s %12.4f %-10s per input set; peak %d cores held, limit %d\n",
		"sim_core_s", o.coreS/float64(o.sets), "s", o.peakCores, o.coreLimit)
	ratio := 0.0
	if o.imcBytes > 0 {
		ratio = float64(o.htBytes) / float64(o.imcBytes)
	}
	fmt.Printf("  %-18s %12.6f %-10s %d HT bytes over %d IMC bytes\n", "sim_ht_imc_ratio", ratio, "ratio", o.htBytes, o.imcBytes)
	bad := o.dropped + o.failed + o.abandoned
	fmt.Printf("  %-18s %12.6f %-10s %d of %d offered (dropped %d, failed %d, abandoned %d)\n",
		"failed_frac", float64(bad)/float64(max(o.offered, 1)), "ratio", bad, o.offered, o.dropped, o.failed, o.abandoned)

	if p.trace {
		fmt.Println("per-layer (metric, value, unit -> the end-to-end metric it should move):")
		for _, d := range perLayer {
			fmt.Printf("  %-28s %14.6f %-6s -> %s\n", d.Name, p.value(d.Name, measured, o), d.Unit, d.Moves)
		}
	}

	want := ref[p.name][strconv.FormatUint(p.seed, 10)]
	for _, c := range p.firstPerSet() {
		switch {
		case c.Sub >= len(want):
			fmt.Printf("input %d digest %s (no reference recorded)\n", c.Sub, c.Digest)
		case want[c.Sub] == c.Digest:
			fmt.Printf("input %d digest %s = parent commit's: model unchanged\n", c.Sub, c.Digest)
		default:
			fmt.Printf("input %d digest %s != parent commit's %s: MODEL CHANGED\n", c.Sub, c.Digest, want[c.Sub])
		}
	}
	if len(gates) == 0 {
		fmt.Println("gates: all passed (request accounting, core limit, p99 sample count, equal digests across runs)")
		return
	}
	for _, g := range gates {
		fmt.Println("GATE FAILED:", g)
	}
}
