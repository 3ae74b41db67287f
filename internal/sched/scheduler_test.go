package sched

import (
	"math/rand"
	"testing"

	"elasticore/internal/faults"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

func newTestSched() *Scheduler {
	return New(numa.NewMachine(numa.Opteron8387()), Config{})
}

// fixedWork runs for a total of cycles and then finishes.
type fixedWork struct{ remaining uint64 }

func (w *fixedWork) Run(_ *ExecContext, budget uint64) (uint64, bool, bool) {
	if w.remaining <= budget {
		used := w.remaining
		w.remaining = 0
		return used, false, true
	}
	w.remaining -= budget
	return budget, false, false
}

func TestThreadRunsToCompletion(t *testing.T) {
	s := newTestSched()
	work := &fixedWork{remaining: 3 * s.Quantum()}
	th := s.Spawn(1, "w", work)
	for i := 0; i < 10 && th.State() != Done; i++ {
		s.Tick()
	}
	if th.State() != Done {
		t.Fatalf("thread state = %v, want done", th.State())
	}
	if work.remaining != 0 {
		t.Errorf("work remaining = %d", work.remaining)
	}
	if s.LiveThreads() != 0 {
		t.Errorf("LiveThreads = %d, want 0", s.LiveThreads())
	}
}

func TestSpawnSpreadsAcrossNodes(t *testing.T) {
	// With all cores allowed, the kernel's spreading policy must land the
	// first NodeCount threads on distinct nodes.
	s := newTestSched()
	topo := s.Machine().Topology()
	seen := make(map[numa.NodeID]bool)
	for i := 0; i < topo.NodeCount; i++ {
		th := s.Spawn(1, "w", &fixedWork{remaining: 100 * s.Quantum()})
		seen[topo.NodeOf(th.Core())] = true
	}
	if len(seen) != topo.NodeCount {
		t.Errorf("first %d threads touched %d nodes, want all %d",
			topo.NodeCount, len(seen), topo.NodeCount)
	}
}

func TestCGroupRestrictsPlacement(t *testing.T) {
	s := newTestSched()
	g := s.NewCGroup("dbms")
	g.AddPID(7)
	g.SetCPUs(NewCPUSet(0, 1))
	for i := 0; i < 6; i++ {
		th := s.Spawn(7, "w", &fixedWork{remaining: 100 * s.Quantum()})
		if c := th.Core(); c != 0 && c != 1 {
			t.Errorf("thread placed on core %d outside cpuset", c)
		}
	}
	// A PID outside the group is unrestricted.
	other := s.Spawn(8, "x", &fixedWork{remaining: 100 * s.Quantum()})
	_ = other // may land anywhere; just must not panic
}

func TestCPUSetShrinkMigratesThreads(t *testing.T) {
	s := newTestSched()
	g := s.NewCGroup("dbms")
	g.AddPID(7)
	g.SetCPUs(FullSet(s.Machine().Topology()))
	var ths []*Thread
	for i := 0; i < 8; i++ {
		ths = append(ths, s.Spawn(7, "w", &fixedWork{remaining: 1000 * s.Quantum()}))
	}
	before := s.Stats().Migrations
	g.SetCPUs(NewCPUSet(0))
	for _, th := range ths {
		if th.State() != Done && th.Core() != 0 {
			t.Errorf("thread on core %d after shrink to {0}", th.Core())
		}
	}
	if s.Stats().Migrations == before {
		t.Error("shrink produced no migration events")
	}
}

func TestBalancerStealsFromBusyCore(t *testing.T) {
	s := newTestSched()
	// Pin spawn placement to core 0 via a one-core group, then widen the
	// set: the balancer must spread the backlog.
	g := s.NewCGroup("g")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0))
	for i := 0; i < 8; i++ {
		s.Spawn(1, "w", &fixedWork{remaining: 1000 * s.Quantum()})
	}
	g.SetCPUs(NewCPUSet(0, 1, 2, 3))
	for i := 0; i < 8; i++ {
		s.Tick()
	}
	if s.Stats().StolenTasks == 0 {
		t.Error("balancer stole nothing from an 8-deep queue")
	}
	lens := s.QueueLengths()
	if lens[0] >= 8 {
		t.Errorf("core 0 queue still %d deep after balancing", lens[0])
	}
}

func TestPinnedThreadNeverLeavesMask(t *testing.T) {
	s := newTestSched()
	pin := NewCPUSet(5)
	th := s.Spawn(1, "pinned", &fixedWork{remaining: 50 * s.Quantum()}, Pinned(pin))
	if th.Core() != 5 {
		t.Fatalf("pinned thread placed on core %d, want 5", th.Core())
	}
	// Add load so the balancer is tempted.
	for i := 0; i < 10; i++ {
		s.Spawn(2, "w", &fixedWork{remaining: 50 * s.Quantum()})
	}
	for i := 0; i < 20; i++ {
		s.Tick()
		if th.State() == Done {
			break
		}
		if th.Core() != 5 {
			t.Fatalf("pinned thread migrated to core %d", th.Core())
		}
	}
}

func TestBlockedThreadWakes(t *testing.T) {
	s := newTestSched()
	phase := 0
	r := RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
		switch phase {
		case 0:
			phase = 1
			return budget / 2, true, false // block after half a quantum
		default:
			return budget / 4, false, true // finish after wake
		}
	})
	th := s.Spawn(1, "blocky", r)
	s.Tick()
	if th.State() != Blocked {
		t.Fatalf("state = %v, want blocked", th.State())
	}
	// Blocked threads consume no CPU.
	busyBefore := s.Machine().Snapshot().Cores[th.Core()].BusyCycles
	s.Tick()
	if busy := s.Machine().Snapshot().Cores[th.Core()].BusyCycles; busy != busyBefore {
		t.Error("blocked thread consumed CPU")
	}
	s.Wake(th)
	s.Tick()
	if th.State() != Done {
		t.Errorf("state after wake = %v, want done", th.State())
	}
}

func TestWakeAllWakesOnlyPID(t *testing.T) {
	s := newTestSched()
	blockOnce := func() Runner {
		first := true
		return RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
			if first {
				first = false
				return 1, true, false
			}
			return 1, false, true
		})
	}
	a := s.Spawn(1, "a", blockOnce())
	b := s.Spawn(2, "b", blockOnce())
	s.Tick()
	if a.State() != Blocked || b.State() != Blocked {
		t.Fatal("threads did not block")
	}
	s.WakeAll(1)
	if a.State() != Runnable {
		t.Error("pid-1 thread not woken")
	}
	if b.State() != Blocked {
		t.Error("pid-2 thread woken by WakeAll(1)")
	}
}

func TestIdleCoresChargeIdle(t *testing.T) {
	s := newTestSched()
	s.Tick()
	snap := s.Machine().Snapshot()
	for c, cc := range snap.Cores {
		if cc.IdleCycles != s.Quantum() {
			t.Errorf("core %d idle = %d, want %d", c, cc.IdleCycles, s.Quantum())
		}
		if cc.BusyCycles != 0 {
			t.Errorf("core %d busy = %d, want 0", c, cc.BusyCycles)
		}
	}
}

func TestCrossNodeStealDropsAffinity(t *testing.T) {
	s := newTestSched()
	g := s.NewCGroup("g")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0))
	for i := 0; i < 6; i++ {
		s.Spawn(1, "w", &fixedWork{remaining: 1000 * s.Quantum()})
	}
	g.SetCPUs(NewCPUSet(0, 4, 8, 12)) // one core per node
	for i := 0; i < 12; i++ {
		s.Tick()
	}
	if s.Stats().CrossNodeMigrations == 0 {
		t.Error("no cross-node migrations despite one-core-per-node cpuset")
	}
}

func TestRunUntil(t *testing.T) {
	s := newTestSched()
	th := s.Spawn(1, "w", &fixedWork{remaining: 2 * s.Quantum()})
	ok := s.RunUntil(func() bool { return th.State() == Done }, 100*s.Quantum())
	if !ok {
		t.Error("RunUntil did not reach the predicate")
	}
	if !s.RunUntil(func() bool { return true }, 0) {
		t.Error("RunUntil with satisfied predicate returned false")
	}
	if s.RunUntil(func() bool { return false }, 3*s.Quantum()) {
		t.Error("RunUntil with impossible predicate returned true")
	}
}

func TestMigrationEventsObserved(t *testing.T) {
	s := newTestSched()
	var events []MigrationEvent
	s.EnsureBus().Subscribe(obs.KindMigration, func(e obs.Event) {
		events = append(events, MigrationEvent{
			TID: TID(e.TID), From: numa.CoreID(e.From), To: numa.CoreID(e.Core), Now: e.Now,
		})
	})
	g := s.NewCGroup("g")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0))
	for i := 0; i < 5; i++ {
		s.Spawn(1, "w", &fixedWork{remaining: 500 * s.Quantum()})
	}
	g.SetCPUs(NewCPUSet(2, 3))
	if len(events) == 0 {
		t.Fatal("no migration events for displaced threads")
	}
	for _, e := range events {
		if e.To != 2 && e.To != 3 {
			t.Errorf("migration target %d outside new cpuset", e.To)
		}
	}
}

// TestCoreSlowdown: a factor-F core charges F wall cycles per retired
// work cycle; a stalled core freezes its queue without losing threads;
// clearing the factor restores full speed.
func TestCoreSlowdown(t *testing.T) {
	s := newTestSched()
	q := s.Quantum()
	th := s.Spawn(1, "w", &fixedWork{remaining: 4 * q}, Pinned(NewCPUSet(0)))
	if got := s.CoreSlowdown(0); got != 1 {
		t.Fatalf("untouched core reports factor %d", got)
	}

	s.SetCoreSlowdown(0, 4)
	s.Tick() // retires q/4 work in one quantum of wall time
	if th.State() != Runnable {
		t.Fatalf("thread state %v after slowed tick", th.State())
	}
	for i := 0; i < 14; i++ { // 15 slowed quanta < 16 needed
		s.Tick()
	}
	if th.State() == Done {
		t.Fatal("4x-slowed thread finished as if at full speed")
	}

	s.SetCoreSlowdown(0, faults.StallFactor)
	before := s.machine.Now()
	for i := 0; i < 8; i++ {
		s.Tick()
	}
	if th.State() == Done {
		t.Fatal("stalled core retired work")
	}
	if s.machine.Now() != before+8*q {
		t.Fatal("stalled ticks did not advance the clock")
	}
	if s.QueueLengths()[0] != 1 {
		t.Fatal("stalled core lost its queued thread")
	}

	s.SetCoreSlowdown(0, 1)
	if !s.RunUntil(func() bool { return th.State() == Done }, 100*q) {
		t.Fatal("thread did not finish after the stall lifted")
	}
}

// refPlacementCore is the reference for placementCore: the per-core walk
// over each node's cores in Topology.Cores order that placement used
// before it became bitmask arithmetic.
func refPlacementCore(s *Scheduler, t *Thread) numa.CoreID {
	coresOn := func(set CPUSet, n numa.NodeID) []numa.CoreID {
		var out []numa.CoreID
		for _, c := range s.topo.Cores(n) {
			if set.Contains(c) {
				out = append(out, c)
			}
		}
		return out
	}
	allowed := s.allowedSet(t)
	if t.spawnHint != numa.NoNode {
		if cores := coresOn(allowed, t.spawnHint); len(cores) > 0 {
			best, bestLen := cores[0], s.queues[cores[0]].Len()
			for _, c := range cores[1:] {
				if l := s.queues[c].Len(); l < bestLen {
					best, bestLen = c, l
				}
			}
			return best
		}
	}
	bestNode, bestNodeLoad := numa.NodeID(-1), 1<<30
	for n := 0; n < s.topo.NodeCount; n++ {
		cores := coresOn(allowed, numa.NodeID(n))
		if len(cores) == 0 {
			continue
		}
		load := 0
		for _, c := range cores {
			load += s.queues[c].Len()
		}
		if norm := load * 16 / len(cores); norm < bestNodeLoad {
			bestNodeLoad, bestNode = norm, numa.NodeID(n)
		}
	}
	best, bestLen := numa.CoreID(-1), 1<<30
	for _, c := range coresOn(allowed, bestNode) {
		if l := s.queues[c].Len(); l < bestLen {
			best, bestLen = c, l
		}
	}
	return best
}

// TestPlacementMatchesReference cross-checks placementCore against
// refPlacementCore on every zoo topology: random queue loads, cgroup
// cpusets, pins and NearNode hints, including hints outside the
// topology, which both must ignore.
func TestPlacementMatchesReference(t *testing.T) {
	for _, name := range numa.ZooNames() {
		topo := numa.Zoo()[name]
		rng := rand.New(rand.NewSource(int64(len(name))))
		full := FullSet(topo)
		randomSet := func() CPUSet {
			for {
				if set := CPUSet(rng.Uint64()) & full; !set.IsEmpty() {
					return set
				}
			}
		}
		s := New(numa.NewMachine(topo), Config{})
		g := s.NewCGroup("g")
		g.AddPID(1)
		for i := 0; i < 3*topo.TotalCores(); i++ {
			s.Spawn(2, "load", spinWork{}, Pinned(NewCPUSet(numa.CoreID(rng.Intn(topo.TotalCores())))))
		}
		for trial := 0; trial < 500; trial++ {
			g.SetCPUs(randomSet())
			probe := &Thread{PID: 1 + rng.Intn(2), spawnHint: numa.NoNode}
			probe.proc = s.procOf(probe.PID)
			if rng.Intn(3) == 0 {
				probe.pinned = randomSet()
			}
			if rng.Intn(4) != 0 {
				probe.spawnHint = numa.NodeID(rng.Intn(topo.NodeCount+6) - 3)
			}
			if got, want := s.placementCore(probe), refPlacementCore(s, probe); got != want {
				t.Fatalf("%s trial %d: placementCore = %d, reference %d (allowed %v, hint %d, queues %v)",
					name, trial, got, want, s.allowedSet(probe), probe.spawnHint, s.QueueLengths())
			}
			if rng.Intn(2) == 0 {
				s.Spawn(2, "load", spinWork{}, Pinned(NewCPUSet(numa.CoreID(rng.Intn(topo.TotalCores())))))
			}
		}
	}
}

// TestSpawnAllocs pins Spawn's allocations: the Thread itself and
// nothing else, with or without a placement hint.
func TestSpawnAllocs(t *testing.T) {
	s := newTestSched()
	near := NearNode(1)
	if allocs := testing.AllocsPerRun(1000, func() { s.Spawn(1, "w", spinWork{}, near) }); allocs != 1 {
		t.Fatalf("Spawn allocated %v times per call, want 1", allocs)
	}
}

// TestThreadListStaysBounded: a process that spawns and finishes threads
// without ever calling WakeAll still keeps its thread list within twice
// its live count plus compactSlack.
func TestThreadListStaysBounded(t *testing.T) {
	s := newTestSched()
	quick := RunnerFunc(func(_ *ExecContext, _ uint64) (uint64, bool, bool) { return 1, false, true })
	s.Spawn(1, "resident", spinWork{})
	p := s.procs[1]
	longest := 0
	for i := 0; i < 100000; i++ {
		s.Spawn(1, "quick", quick)
		s.Tick()
		longest = max(longest, len(p.threads))
	}
	if p.live != 1 || s.LiveThreads() != 1 {
		t.Fatalf("live = %d, LiveThreads = %d, want 1", p.live, s.LiveThreads())
	}
	if bound := 2*1 + compactSlack + 1; longest > bound {
		t.Fatalf("thread list reached %d entries for 1 live thread, want <= %d", longest, bound)
	}
}
