package sched

import (
	"testing"
	"testing/quick"

	"elasticore/internal/numa"
)

func TestCPUSetBasics(t *testing.T) {
	s := NewCPUSet(0, 3, 5)
	if !s.Contains(0) || !s.Contains(3) || !s.Contains(5) {
		t.Error("set missing members")
	}
	if s.Contains(1) {
		t.Error("set contains non-member")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	s = s.Remove(3)
	if s.Contains(3) || s.Count() != 2 {
		t.Error("Remove failed")
	}
}

func TestFullSet(t *testing.T) {
	topo := numa.Opteron8387()
	s := FullSet(topo)
	if s.Count() != topo.TotalCores() {
		t.Errorf("FullSet count = %d, want %d", s.Count(), topo.TotalCores())
	}
	for c := 0; c < topo.TotalCores(); c++ {
		if !s.Contains(numa.CoreID(c)) {
			t.Errorf("FullSet missing core %d", c)
		}
	}
	if s.Contains(numa.CoreID(topo.TotalCores())) {
		t.Error("FullSet contains core beyond machine")
	}
}

func TestCPUSetCoresSorted(t *testing.T) {
	s := NewCPUSet(9, 2, 14, 0)
	cores := s.Cores()
	want := []numa.CoreID{0, 2, 9, 14}
	if len(cores) != len(want) {
		t.Fatalf("Cores = %v, want %v", cores, want)
	}
	for i := range want {
		if cores[i] != want[i] {
			t.Fatalf("Cores = %v, want %v", cores, want)
		}
	}
}

func TestCPUSetNodesTouched(t *testing.T) {
	topo := numa.Opteron8387()
	s := NewCPUSet(0, 1, 13) // node 0 twice, node 3 once
	nodes := s.NodesTouched(topo)
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 3 {
		t.Errorf("NodesTouched = %v, want [0 3]", nodes)
	}
	on0 := s.CoresOnNode(topo, 0)
	if len(on0) != 2 || on0[0] != 0 || on0[1] != 1 {
		t.Errorf("CoresOnNode(0) = %v", on0)
	}
	for _, n := range []numa.NodeID{-1, numa.NodeID(topo.NodeCount)} {
		if got := FullSet(topo).CoresOnNode(topo, n); len(got) != 0 {
			t.Errorf("CoresOnNode(%d) outside the topology = %v", n, got)
		}
	}
}

func TestCPUSetString(t *testing.T) {
	cases := []struct {
		set  CPUSet
		want string
	}{
		{NewCPUSet(), "(empty)"},
		{NewCPUSet(4), "4"},
		{NewCPUSet(0, 1, 2, 3), "0-3"},
		{NewCPUSet(0, 2, 3, 4, 9), "0,2-4,9"},
	}
	for _, tc := range cases {
		if got := tc.set.String(); got != tc.want {
			t.Errorf("String(%b) = %q, want %q", tc.set, got, tc.want)
		}
	}
}

func TestCPUSetAlgebra(t *testing.T) {
	f := func(a, b uint16) bool {
		sa, sb := CPUSet(a), CPUSet(b)
		inter := sa.Intersect(sb)
		union := sa.Union(sb)
		// |A| + |B| == |A∪B| + |A∩B|
		return sa.Count()+sb.Count() == union.Count()+inter.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	f := func(raw uint16, core uint8) bool {
		s := CPUSet(raw)
		c := numa.CoreID(core % 16)
		return s.Add(c).Remove(c).Add(c).Contains(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
