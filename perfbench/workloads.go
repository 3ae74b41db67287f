package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"elasticore/internal/arrivals"
	"elasticore/internal/cluster"
	"elasticore/internal/db"
	"elasticore/internal/hashmix"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// workloads.go defines the three benchmark workloads. Each one turns the
// benchmark seed into its inputs (dataset seeds, query streams, arrival
// processes, lookup keys), builds its rig or fleet in setup, and drives
// one complete run in run by calling the simulator's public functions
// from its own loop. The tracer, nil in untraced runs, wraps each call.

// Operating points. They are fixed: later changes compare against them.
const (
	closedTenantSF  = 0.05 // per tenant; the two tenants make SF 0.1
	closedClients   = 16   // per tenant
	closedPerClient = 6    // queries per client stream

	htapSF       = 0.01
	htapArrivals = 10000
	htapSessions = 64
	htapLookups  = 0.97

	fleetMachines = 16
	fleetShardSF  = 0.002 // per machine
	fleetRate     = 40000 // arrivals per simulated second
	fleetArrivals = 40000
	fleetScatter  = 20 // every 20th request fans out to all machines
	fleetSessions = 8

	maxSimSeconds = 600 // runaway guard; no workload comes near it
)

// bench is one workload: setup builds the system under test from the
// seed, run drives it once.
type bench interface {
	setup(seed uint64, workers int) error
	run(tr *tracer) *outcome
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"tpch-closed", "htap-burst", "fleet-lookup"}

// newBench returns a fresh, not yet set-up workload by name.
func newBench(name string) (bench, error) {
	switch name {
	case "tpch-closed":
		return &tpchClosed{}, nil
	case "htap-burst":
		return &htapBurst{}, nil
	case "fleet-lookup":
		return &fleetLookup{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// derive returns the i-th input seed of a benchmark seed, never zero
// (zero selects a default in the simulator's options).
func derive(seed uint64, i uint64) uint64 {
	s := hashmix.Mix64(seed ^ hashmix.Mix64(i*hashmix.Golden))
	if s == 0 {
		s = 1
	}
	return s
}

// subSeed returns the seed of input set sub of a benchmark seed.
func subSeed(seed uint64, sub int) uint64 { return derive(seed, 100+uint64(sub)) }

// outcome is what one run of a workload produced, in simulated terms,
// plus the layer counters read from public accessors.
type outcome struct {
	// Request accounting: Offered = Completed + Dropped + Failed + Abandoned.
	Offered, Completed, Dropped, Failed, Abandoned int
	// Latencies are per-request simulated latencies in cycles, measured
	// from when the request was due; QueueWaits the admission-queue part
	// (open loops only).
	Latencies, QueueWaits []uint64
	// SimCycles is the simulated time the run took; CycleSeconds converts.
	SimCycles    uint64
	CycleSeconds float64
	// CoreCycles integrates the cores held by the DBMS over simulated time.
	CoreCycles float64
	// PeakCores is the most cores held at once and CoreLimit what the
	// workload allows (machine size, or the fleet budget).
	PeakCores, CoreLimit int
	// Window sums the numa counter deltas over every machine; Sched the
	// scheduler stats deltas.
	Window numa.Counters
	Sched  sched.Stats
	// Counts are exact per-layer counters (transitions, grants, ...).
	Counts map[string]float64
	// digest accumulates per-request results during the run; seal, when
	// set, folds workload-specific end state into it. Digest is the final
	// hash, set by finish.
	digest *digest
	seal   func(*digest)
	Digest uint64
}

// finish completes the digest with the run's end state: simulated time,
// counters and every exact layer count. It runs after the run's clock
// has stopped, so hashing is never timed as the program's work.
func (o *outcome) finish() {
	d := o.digest
	if o.seal != nil {
		o.seal(d)
	}
	for _, n := range []int{o.Offered, o.Completed, o.Dropped, o.Failed, o.Abandoned} {
		d.u64(uint64(n))
	}
	d.u64(o.SimCycles)
	d.counters(o.Window, o.Sched)
	keys := make([]string, 0, len(o.Counts))
	for k := range o.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.h.Write([]byte(k))
		d.f64(o.Counts[k])
	}
	o.Digest = d.h.Sum64()
}

// digest accumulates the simulated output into an FNV-1a hash.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	for i := range d.buf {
		d.buf[i] = byte(v >> (8 * i))
	}
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

// counters folds the numa and scheduler state into the digest.
func (d *digest) counters(w numa.Counters, s sched.Stats) {
	d.u64(w.Now)
	for _, n := range w.Nodes {
		for _, v := range []uint64{n.L3Hits, n.L3Misses, n.HTBytesOut, n.HTBytesIn,
			n.IMCBytes, n.MinorFaults, n.Invalidations, n.DataTouches} {
			d.u64(v)
		}
	}
	for _, c := range w.Cores {
		d.u64(c.BusyCycles)
		d.u64(c.IdleCycles)
	}
	for _, v := range []uint64{s.Spawned, s.StolenTasks, s.Migrations, s.CrossNodeMigrations, s.TicksRun} {
		d.u64(v)
	}
}

// addCounters sums two counter windows node by node and core by core.
func addCounters(a, b numa.Counters) numa.Counters {
	if a.Nodes == nil {
		return b.Clone()
	}
	for i := range b.Nodes {
		n, m := &a.Nodes[i], b.Nodes[i]
		n.L3Hits += m.L3Hits
		n.L3Misses += m.L3Misses
		n.HTBytesOut += m.HTBytesOut
		n.HTBytesIn += m.HTBytesIn
		n.IMCBytes += m.IMCBytes
		n.MinorFaults += m.MinorFaults
		n.Invalidations += m.Invalidations
		n.DataTouches += m.DataTouches
	}
	for i := range b.Cores {
		a.Cores[i].BusyCycles += b.Cores[i].BusyCycles
		a.Cores[i].IdleCycles += b.Cores[i].IdleCycles
	}
	a.Now += b.Now
	return a
}

// statsDelta returns the scheduler counters accumulated since start.
func statsDelta(start, end sched.Stats) sched.Stats {
	return sched.Stats{
		Spawned:             end.Spawned - start.Spawned,
		StolenTasks:         end.StolenTasks - start.StolenTasks,
		Migrations:          end.Migrations - start.Migrations,
		CrossNodeMigrations: end.CrossNodeMigrations - start.CrossNodeMigrations,
		TicksRun:            end.TicksRun - start.TicksRun,
	}
}

func addStats(a, b sched.Stats) sched.Stats {
	return sched.Stats{
		Spawned:             a.Spawned + b.Spawned,
		StolenTasks:         a.StolenTasks + b.StolenTasks,
		Migrations:          a.Migrations + b.Migrations,
		CrossNodeMigrations: a.CrossNodeMigrations + b.CrossNodeMigrations,
		TicksRun:            a.TicksRun + b.TicksRun,
	}
}

// ---------------------------------------------------------------------
// tpch-closed: two arbitrated tenants, 16 closed-loop clients each.

type tpchClosed struct {
	rig *workload.MultiRig
	// streams[t][c] is client c of tenant t's query sequence; seeds[t][c]
	// the matching plan-parameter seeds.
	streams, seeds [][][]uint64
}

// closedStreams deals one tenant's query numbers to its clients: the
// deck holds Q1-Q22 equally often (the remainder drawn without
// repetition), shuffled by the seed, so every stream position is a
// uniform draw while the total work of a run does not depend on the seed.
func closedStreams(seed uint64) (queries, params [][]uint64) {
	n := closedClients * closedPerClient
	deck := make([]uint64, 0, n)
	for len(deck) < n {
		for q := uint64(1); q <= tpch.QueryCount; q++ {
			deck = append(deck, q)
		}
	}
	r := hashmix.Stream{State: seed}
	// The last partial copy keeps a random subset: shuffle it first.
	full := n / tpch.QueryCount * tpch.QueryCount
	tail := deck[full:]
	for i := len(tail) - 1; i > 0; i-- {
		j := int(r.Next() % uint64(i+1))
		tail[i], tail[j] = tail[j], tail[i]
	}
	deck = deck[:n]
	for i := len(deck) - 1; i > 0; i-- {
		j := int(r.Next() % uint64(i+1))
		deck[i], deck[j] = deck[j], deck[i]
	}
	queries = make([][]uint64, closedClients)
	params = make([][]uint64, closedClients)
	for c := range queries {
		queries[c] = deck[c*closedPerClient : (c+1)*closedPerClient]
		params[c] = make([]uint64, closedPerClient)
		for k := range params[c] {
			params[c][k] = r.Next()
		}
	}
	return queries, params
}

func (w *tpchClosed) setup(seed uint64, _ int) error {
	for t := uint64(0); t < 2; t++ {
		q, p := closedStreams(derive(seed, 10+t))
		w.streams = append(w.streams, q)
		w.seeds = append(w.seeds, p)
	}
	rig, err := workload.NewMultiRig(workload.MultiOptions{Tenants: []workload.TenantSpec{
		{Name: "gold", SF: closedTenantSF, Seed: derive(seed, 1), Mode: workload.ModeAdaptive,
			SLA: tenant.SLA{Weight: 4, MinCores: 2}},
		{Name: "silver", SF: closedTenantSF, Seed: derive(seed, 2), Mode: workload.ModeAdaptive,
			SLA: tenant.SLA{Weight: 2}},
	}})
	if err != nil {
		return err
	}
	w.rig = rig
	return nil
}

func (w *tpchClosed) run(tr *tracer) *outcome {
	m := w.rig
	type client struct {
		cur  *db.Query
		next int
	}
	clients := make([][]client, len(m.Tenants))
	for t := range clients {
		clients[t] = make([]client, closedClients)
	}
	out := &outcome{Counts: map[string]float64{}, CoreLimit: m.Machine.Topology().TotalCores(), digest: newDigest()}
	d := out.digest
	startSnap, startStats := m.Machine.Snapshot(), m.Sched.Stats()
	startCycle := m.Machine.Now()
	startRounds, startGrants := m.Arbiter.Rounds, len(m.Arbiter.Events())
	deadline := startCycle + m.Machine.Topology().SecondsToCycles(maxSimSeconds)

	// pump reaps each tenant's finished queries and submits every idle
	// client's next one: the closed loop of workload.MultiRig.Run.
	pump := func() {
		for t, tn := range m.Tenants {
			for c := range clients[t] {
				cs := &clients[t][c]
				if cs.cur != nil && cs.cur.Done() {
					lat := cs.cur.ElapsedCycles()
					out.Completed++
					out.Latencies = append(out.Latencies, lat)
					d.u64(uint64(t))
					d.u64(uint64(c))
					d.u64(lat)
					d.f64(cs.cur.Scalar("result"))
					id := tr.begin("db.release")
					tn.Engine.Release(cs.cur)
					tr.end(id)
					cs.cur = nil
				}
				if cs.cur == nil && cs.next < closedPerClient {
					id := tr.begin("tpch.plan")
					p := tpch.Build(int(w.streams[t][c][cs.next]), w.seeds[t][c][cs.next])
					tr.end(id)
					id = tr.begin("db.submit")
					cs.cur = tn.Engine.Submit(p)
					tr.end(id)
					cs.next++
					out.Offered++
				}
			}
		}
	}
	active := func() bool {
		for t := range clients {
			for _, cs := range clients[t] {
				if cs.cur != nil || cs.next < closedPerClient {
					return true
				}
			}
		}
		return false
	}

	root := tr.begin("bench.loop")
	pump()
	for active() && m.Machine.Now() < deadline {
		before := m.Machine.Now()
		id := tr.begin("sched.tick")
		m.Sched.Tick()
		tr.end(id)
		id = tr.begin("tenant.maybe")
		m.Arbiter.Maybe()
		tr.end(id)
		pump()
		held := m.Arbiter.AllocatedTotal()
		out.CoreCycles += float64(held) * float64(m.Machine.Now()-before)
		out.PeakCores = max(out.PeakCores, held)
	}
	tr.end(root)

	for t := range clients {
		for _, cs := range clients[t] {
			if cs.cur != nil {
				out.Abandoned++
			}
		}
	}
	for _, t := range m.Tenants {
		t.Engine.Drain()
	}
	out.SimCycles = m.Machine.Now() - startCycle
	out.CycleSeconds = m.Machine.Topology().CyclesToSeconds(1)
	out.Window = m.Machine.Snapshot().Sub(startSnap)
	out.Sched = statsDelta(startStats, m.Sched.Stats())
	out.Counts["tenant.rounds"] = float64(m.Arbiter.Rounds - startRounds)
	out.Counts["tenant.grants"] = float64(len(m.Arbiter.Events()) - startGrants)
	out.Counts["db.queries"] = float64(out.Completed)
	return out
}

// ---------------------------------------------------------------------
// htap-burst: one rig, bursty open-loop point lookups plus analytics.

type htapBurst struct {
	rig      *workload.Rig
	mixer    tpch.HTAPMixer
	proc     arrivals.Process
	arrivals int // requests offered per run
}

func (w *htapBurst) setup(seed uint64, _ int) error {
	w.proc = arrivals.NewMMPP(2000, 8000, 20e-3, 5e-3, derive(seed, 3))
	w.arrivals = htapArrivals
	rig, err := workload.NewRig(workload.Options{SF: htapSF, Seed: derive(seed, 1), Mode: workload.ModeAdaptive})
	if err != nil {
		return err
	}
	w.rig = rig
	w.mixer = tpch.HTAPMixer{
		Store:       rig.Store,
		OrderRows:   rig.Dataset.Sizes.Orders,
		Seed:        derive(seed, 2),
		LookupRatio: htapLookups,
	}
	return nil
}

func (w *htapBurst) run(tr *tracer) *outcome {
	r := w.rig
	topo := r.Machine.Topology()
	out := &outcome{Counts: map[string]float64{}, CoreLimit: topo.TotalCores(), digest: newDigest()}
	d := out.digest
	// QueueCap is the arrival count, so no request can be shed.
	adm := &workload.Admission{Rig: r, MaxInFlight: htapSessions, QueueCap: w.arrivals}
	adm.OnComplete = func(tag int64, q *db.Query, total, service uint64) {
		out.Latencies = append(out.Latencies, total)
		out.QueueWaits = append(out.QueueWaits, total-service)
		d.u64(uint64(tag))
		d.u64(total)
		d.f64(q.Scalar("result"))
	}
	plan := func(k int, _ int64) *db.Plan {
		id := tr.begin("tpch.plan")
		p := w.mixer.Plan(0, k)
		tr.end(id)
		return p
	}
	r.Mech.SetBacklog(adm.QueueLen)
	defer r.Mech.SetBacklog(nil)

	startSnap, startStats := r.Machine.Snapshot(), r.Sched.Stats()
	startCycle := r.Machine.Now()
	startEvents := len(r.Mech.Events())
	deadline := startCycle + topo.SecondsToCycles(maxSimSeconds)
	var maxLag uint64
	steps := 0

	// The loop is workload.OpenDriver.Run's: reap, offer due arrivals,
	// seat queued requests, then advance the machine one quantum.
	root := tr.begin("bench.loop")
	id := tr.begin("arrivals.next")
	t, more := w.proc.Next()
	tr.end(id)
	nextAt := startCycle + topo.SecondsToCycles(t)
	for {
		nowC := r.Machine.Now()
		id := tr.begin("workload.collect")
		adm.Collect(nowC)
		tr.end(id)
		for more && nextAt <= nowC {
			maxLag = max(maxLag, nowC-nextAt)
			id := tr.begin("workload.offer")
			adm.Offer(nowC, nextAt, int64(adm.Offered))
			tr.end(id)
			if adm.Offered >= w.arrivals {
				more = false
				break
			}
			id = tr.begin("arrivals.next")
			t, ok := w.proc.Next()
			tr.end(id)
			nextAt, more = startCycle+topo.SecondsToCycles(t), ok
		}
		id = tr.begin("workload.fill")
		adm.Fill(nowC, plan)
		tr.end(id)
		adm.UpdatePeaks()
		if (!more && adm.Idle()) || nowC >= deadline {
			break
		}
		id = tr.begin("sched.tick")
		r.Sched.Tick()
		tr.end(id)
		due := r.Mech.NextAt()
		id = tr.begin("elastic.maybe")
		r.Mech.Maybe()
		tr.end(id)
		if r.Mech.NextAt() != due {
			steps++
		}
		held := r.AllocatedCores()
		out.CoreCycles += float64(held) * float64(r.Machine.Now()-nowC)
		out.PeakCores = max(out.PeakCores, held)
	}
	tr.end(root)

	r.Engine.Drain()
	out.Offered = adm.Offered
	out.Completed = adm.Completed
	out.Dropped = adm.Dropped
	out.Failed = adm.Failed
	out.Abandoned = adm.Offered - adm.Completed - adm.Dropped - adm.Failed
	out.SimCycles = r.Machine.Now() - startCycle
	out.CycleSeconds = topo.CyclesToSeconds(1)
	out.Window = r.Machine.Snapshot().Sub(startSnap)
	out.Sched = statsDelta(startStats, r.Sched.Stats())
	out.Counts["elastic.steps"] = float64(steps)
	out.Counts["elastic.transitions"] = float64(len(r.Mech.Events()) - startEvents)
	out.Counts["workload.peak_queue"] = float64(adm.PeakQueueDepth)
	out.Counts["arrivals.max_lag_cycles"] = float64(maxLag)
	out.Counts["db.queries"] = float64(adm.Admitted)
	return out
}

// ---------------------------------------------------------------------
// fleet-lookup: keyed point lookups through the cluster coordinator.

type fleetLookup struct {
	fleet *cluster.Fleet
	arb   *cluster.ClusterArbiter
	bus   *obs.Bus
	// keySeed and planSeed derive routing keys and lookup keys.
	keySeed, planSeed, arrivalSeed uint64
	orderRows                      int
}

func (w *fleetLookup) setup(seed uint64, workers int) error {
	w.keySeed, w.planSeed, w.arrivalSeed = derive(seed, 2), derive(seed, 3), derive(seed, 4)
	w.bus = obs.NewBus(0)
	f, err := cluster.NewFleet(cluster.Options{
		Machines: fleetMachines,
		Shards:   fleetMachines,
		SF:       fleetShardSF * fleetMachines,
		Seed:     derive(seed, 1),
		Mode:     workload.ModeDense,
		Bus:      w.bus,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	physical := 0
	w.orderRows = math.MaxInt
	for _, r := range f.Rigs {
		physical += r.Machine.Topology().TotalCores()
		// Lookup keys stay below every machine's order count, so each
		// lookup hits wherever it is routed.
		w.orderRows = min(w.orderRows, r.Dataset.Sizes.Orders)
	}
	arb, err := cluster.NewClusterArbiter(cluster.ClusterArbiterConfig{Fleet: f, Budget: physical / 2})
	if err != nil {
		return err
	}
	w.fleet, w.arb = f, arb
	return nil
}

func (w *fleetLookup) run(tr *tracer) *outcome {
	f := w.fleet
	topo := f.Rigs[0].Machine.Topology()
	out := &outcome{Counts: map[string]float64{}, CoreLimit: w.arb.Budget(), digest: newDigest()}
	d := out.digest
	startSnaps := make([]numa.Counters, len(f.Rigs))
	startStats := make([]sched.Stats, len(f.Rigs))
	for m, r := range f.Rigs {
		startSnaps[m], startStats[m] = r.Machine.Snapshot(), r.Sched.Stats()
	}
	startCycle := f.Now()
	startRebalances := len(w.arb.Events())

	// Allocation is read at every request outcome (tens of thousands per
	// simulated second) and integrated piecewise over simulated time.
	lastAt, lastHeld := startCycle, 0
	for _, r := range f.Rigs {
		lastHeld += r.AllocatedCores()
	}
	out.PeakCores = lastHeld
	coord := &cluster.Coordinator{
		Fleet:        f,
		Process:      arrivals.NewPoisson(fleetRate, w.arrivalSeed),
		Keys:         func(k int) uint64 { return hashmix.Mix64(w.keySeed ^ uint64(k)) },
		ScatterEvery: fleetScatter,
		Build: func(id uint64) *db.Plan {
			s := tr.begin("tpch.plan")
			p := tpch.BuildPointLookup(hashmix.Mix64(w.planSeed^id), w.orderRows)
			tr.end(s)
			return p
		},
		MaxInFlight: fleetSessions,
		// QueueCap is the arrival count, so no request can be shed.
		QueueCap:    fleetArrivals,
		MaxArrivals: fleetArrivals,
		MaxSeconds:  maxSimSeconds,
		OnOutcome: func(nowC, latency uint64, ok bool) {
			if ok {
				out.Latencies = append(out.Latencies, latency)
				d.u64(nowC)
				d.u64(latency)
			}
			out.CoreCycles += float64(lastHeld) * float64(nowC-lastAt)
			held := 0
			for _, r := range f.Rigs {
				held += r.AllocatedCores()
			}
			lastAt, lastHeld = nowC, held
			out.PeakCores = max(out.PeakCores, held)
		},
	}
	id := tr.begin("cluster.run")
	res := coord.Run()
	tr.end(id)
	out.CoreCycles += float64(lastHeld) * float64(f.Now()-lastAt)

	out.Offered, out.Completed, out.Dropped = res.Offered, res.Completed, res.Dropped
	out.Failed, out.Abandoned = res.Failed, res.Abandoned
	out.SimCycles = f.Now() - startCycle
	out.CycleSeconds = topo.CyclesToSeconds(1)
	routed := make([]int, len(f.Rigs))
	for m, r := range f.Rigs {
		out.Window = addCounters(out.Window, r.Machine.Snapshot().Sub(startSnaps[m]))
		out.Sched = addStats(out.Sched, statsDelta(startStats[m], r.Sched.Stats()))
		routed[m] = res.PerMachine[m].Routed
	}
	maxRouted, sumRouted := 0, 0
	for _, n := range routed {
		maxRouted = max(maxRouted, n)
		sumRouted += n
	}
	if sumRouted > 0 {
		out.Counts["cluster.route_imbalance"] = float64(maxRouted) * float64(len(routed)) / float64(sumRouted)
	}
	out.Counts["cluster.ticks"] = float64(out.SimCycles / f.Rigs[0].Sched.Quantum())
	out.Counts["cluster.rebalances"] = float64(len(w.arb.Events()) - startRebalances)
	out.Counts["obs.events"] = float64(w.bus.Total())
	out.Counts["obs.dropped"] = float64(w.bus.Dropped())
	out.Counts["db.queries"] = float64(sumRouted)

	out.seal = func(d *digest) {
		// The event-stream hash is elasticbench's fleet digest: every
		// event the bus retained, formatted and hashed in order.
		h := fnv.New64a()
		for _, ev := range w.bus.Events() {
			fmt.Fprintf(h, "%v\n", ev)
		}
		d.u64(h.Sum64())
		d.u64(uint64(res.Scattered))
		d.f64(res.MergedScalars)
		for m, r := range f.Rigs {
			d.u64(uint64(routed[m]))
			d.u64(uint64(r.AllocatedCores()))
		}
	}
	return out
}
