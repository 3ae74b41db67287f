package db

import "testing"

// Layer benchmarks of the join and grouping operators, driven the way the
// engine drives them (runRange over a pooled table planned from the
// input's bounds). Each runs on a dense-span key set, which plans direct,
// and a wide-span one, which plans hashed, so both table representations
// report a cost per row:
//
//	go test ./internal/db -run '^$' -bench 'HashBuild|HashProbe|GroupAgg'

const benchRows = 1 << 16

// benchKeySets returns benchRows keys over a span as wide as the row
// count (dense) and over a 2^40 span (wide).
func benchKeySets() []diffKeySet {
	r := newDiffRNG(1)
	return []diffKeySet{
		{"dense", genI64(r, benchRows, benchRows), true},
		{"wide", genI64(r, benchRows, 1<<40), false},
	}
}

// planned returns pool's table planned for keys, checking it picked the
// representation the key set promises.
func planned[V int64 | float64](b *testing.B, m *table[V], ks diffKeySet, member bool) *table[V] {
	n, lo, hi := keyBounds([]*BAT{NewI64("k", ks.keys)})
	m.plan(n, lo, hi, member)
	if m.direct != ks.direct {
		b.Fatalf("%s keys planned direct=%v", ks.name, m.direct)
	}
	return m
}

func reportPerRow(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

func BenchmarkHashBuild(b *testing.B) {
	vals := NewI64("v", genI64(newDiffRNG(2), benchRows, 1000))
	for _, ks := range benchKeySets() {
		keys := NewI64("k", ks.keys)
		for _, mode := range []struct {
			name string
			vals *BAT
		}{{"member", nil}, {"payload", vals}} {
			b.Run(ks.name+"/"+mode.name, func(b *testing.B) {
				var pool bufPool
				for i := 0; i < b.N; i++ {
					set := planned(b, pool.getMapII(), ks, mode.vals == nil)
					NewHashBuild(keys, mode.vals, set).runRange(0, benchRows)
					pool.putMapII(set)
				}
				reportPerRow(b)
			})
		}
	}
}

func BenchmarkHashProbe(b *testing.B) {
	r := newDiffRNG(3)
	for _, ks := range benchKeySets() {
		// Build from half the keys and probe all of them: about half hit.
		var pool bufPool
		half := diffKeySet{ks.name, ks.keys[:benchRows/2], ks.direct}
		set := planned(b, pool.getMapII(), half, false)
		NewHashBuild(NewI64("k", half.keys), NewI64("v", genI64(r, benchRows/2, 1000)), set).runRange(0, benchRows/2)
		col := NewI64("c", ks.keys)
		cand := make([]int64, benchRows)
		for i := range cand {
			cand[i] = int64(i)
		}
		candBAT := NewI64("cand", cand)
		ids := make([]int64, 0, benchRows)
		pays := make([]int64, 0, benchRows)
		b.Run(ks.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewHashProbe(col, candBAT, set, false, true, ids, pays).runRange(0, benchRows)
			}
			reportPerRow(b)
		})
	}
}

func BenchmarkGroupAgg(b *testing.B) {
	vals := NewF64("v", genF64(newDiffRNG(4), benchRows))
	for _, ks := range benchKeySets() {
		keys := NewI64("k", ks.keys)
		b.Run(ks.name, func(b *testing.B) {
			var pool bufPool
			for i := 0; i < b.N; i++ {
				agg := planned(b, pool.getMapIF(), ks, false)
				NewGroupAgg(keys, vals, agg).runRange(0, benchRows)
				pool.putMapIF(agg)
			}
			reportPerRow(b)
		})
	}
}
