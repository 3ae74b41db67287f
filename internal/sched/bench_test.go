package sched

import (
	"testing"

	"elasticore/internal/numa"
)

// Layer benchmarks of the scheduler's thread lifecycle, shaped like the
// engine's per-query dataflow threads:
//
//	go test ./internal/sched -run '^$' -bench 'SpawnPlace|BlockWakeAll'

// BenchmarkSpawnPlace spawns a query's worth of threads with a NearNode
// hint per op, reaping them with one Tick every 64 ops. The cost per op
// is one spawn and its placement plus 1/64 of a reap.
func BenchmarkSpawnPlace(b *testing.B) {
	s := newTestSched()
	nodes := s.Machine().Topology().NodeCount
	quick := RunnerFunc(func(_ *ExecContext, _ uint64) (uint64, bool, bool) { return 1, false, true })
	hints := make([]SpawnOption, nodes)
	for n := range hints {
		hints[n] = NearNode(numa.NodeID(n))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Spawn(1, "w", quick, hints[i%nodes])
		if i%64 == 63 {
			s.Tick()
		}
	}
}

// BenchmarkBlockWakeAll is one WakeAll of a process whose 64 threads
// all block again on their next slice, plus the Tick that blocks them.
func BenchmarkBlockWakeAll(b *testing.B) {
	s := newTestSched()
	blocky := RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
		return budget / 64, true, false
	})
	for i := 0; i < 64; i++ {
		s.Spawn(1, "blocky", blocky)
	}
	s.Tick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.WakeAll(1)
		s.Tick()
	}
}
