package db

import (
	"math/bits"
	"slices"

	"elasticore/internal/hashmix"
)

// hashmap.go provides the tables behind the operator hot path: hash-join
// build/probe sides (i64Map) and grouped-aggregation partials (i64fMap),
// both instances of one int64-keyed table. They replace Go maps on the
// per-tuple path because flat arrays are materially faster for int64
// keys, Reset keeps capacity so the query pool can recycle them
// allocation-free, and iteration is deterministic — though no operator
// depends on iteration order for its results (merged group keys come out
// ascending, probe results follow candidate order).
//
// A table has two representations, chosen once by plan from the number
// of keys and their bounds:
//
//   - direct: a presence bitmap over [lo, lo+span) plus a value slice
//     indexed by key-lo. A membership table (every value 1, the semijoin
//     build) keeps only the bitmap. Range visits keys in ascending order.
//   - hashed: linear probing over power-of-two ctrl/keys/vals arrays, for
//     spans too wide and sparse to address directly.
//
// plan goes direct when the direct arrays take no more bytes than the
// hashed arrays would for the same keys, or than directMinBytes. A Put or
// Add outside the planned span, or a value other than 1 into a membership
// table, converts the table to hashed, so unplanned callers stay correct:
// a zero table is hashed and grows on demand. The representation changes
// host work only; the cycles an operator charges are per tuple.

// hash64 spreads int64 keys over the hashed arrays.
func hash64(x uint64) uint64 { return hashmix.Mix64(x) }

const (
	minMapSlots = 16
	// directMinBytes lets small spans go direct even when the hashed
	// arrays would be smaller: both fit in cache, and indexing beats
	// probing.
	directMinBytes = 32 << 10
	// slotBytes is one hashed slot: a ctrl byte, a key and a value.
	slotBytes = 1 + 8 + 8
)

// i64Map maps int64 keys to int64 payloads (hash-join build sides).
type i64Map = table[int64]

// i64fMap maps int64 keys to float64 sums (aggregation partials).
type i64fMap = table[float64]

// table is an int64-keyed table in the direct or the hashed
// representation. When std is set it delegates to a plain Go map instead
// — the naive mode's seed-faithful fallback; results are identical
// either way.
type table[V int64 | float64] struct {
	// hashed representation
	ctrl []uint8 // 0 empty, 1 occupied; len is a power of two
	keys []int64
	vals []V

	// direct representation: key k is present when bit k-lo is set
	direct bool
	member bool // direct without values: every value is 1
	lo     int64
	span   uint64
	bits   []uint64
	dvals  []V

	n        int   // stored keys
	min, max int64 // hashed key bounds, valid while n > 0
	std      map[int64]V
}

// Len returns the number of stored keys.
func (m *table[V]) Len() int {
	if m.std != nil {
		return len(m.std)
	}
	return m.n
}

// bounds returns the smallest and largest stored key (zeros when empty or
// under std).
func (m *table[V]) bounds() (lo, hi int64) {
	if m.n == 0 {
		return 0, 0
	}
	if !m.direct {
		return m.min, m.max
	}
	// Direct tables read their bounds off the bitmap instead of tracking
	// them per insert.
	first := slices.IndexFunc(m.bits, func(w uint64) bool { return w != 0 })
	last := len(m.bits) - 1
	for m.bits[last] == 0 {
		last--
	}
	lo = m.lo + int64(first<<6+bits.TrailingZeros64(m.bits[first]))
	hi = m.lo + int64(last<<6+63-bits.LeadingZeros64(m.bits[last]))
	return lo, hi
}

// Reset empties the table back to the (unplanned) hashed representation,
// keeping the capacity of both for reuse.
func (m *table[V]) Reset() {
	if m.std != nil {
		clear(m.std)
		return
	}
	if m.direct {
		clear(m.bits)
		m.direct, m.member = false, false
	} else {
		clear(m.ctrl)
	}
	m.n = 0
}

// plan sizes an empty table for up to n keys within [lo, hi] and picks its
// representation; member marks a table whose values are all 1. Planning a
// non-empty table, a Go-map table or zero keys is a no-op.
func (m *table[V]) plan(n int, lo, hi int64, member bool) {
	if m.std != nil || m.n != 0 || n <= 0 || hi < lo {
		return
	}
	if span, ok := directSpan(n, lo, hi, member); ok {
		m.direct, m.member, m.lo, m.span = true, member, lo, span
		m.bits = resized(m.bits, int((span+63)/64))
		if !member {
			m.dvals = resized(m.dvals, int(span))
		}
		return
	}
	m.direct, m.member = false, false
	m.sizeHashed(slotsFor(n))
}

// directSpan returns the span of [lo, hi] and whether a direct table over
// it fits the byte budget for n keys: the hashed size, but at least
// directMinBytes. hi-lo is taken in uint64, exact even when it overflows
// int64.
func directSpan(n int, lo, hi int64, member bool) (uint64, bool) {
	budget := uint64(max(slotsFor(n)*slotBytes, directMinBytes))
	d := uint64(hi) - uint64(lo)
	if d >= 8*budget { // the bitmap alone is over budget
		return 0, false
	}
	span := d + 1
	size := (span + 63) / 64 * 8
	if !member {
		size += 8 * span
	}
	return span, size <= budget
}

// slotsFor returns the hashed capacity holding n keys without growing.
func slotsFor(n int) int {
	s := minMapSlots
	for 3*s < 4*n {
		s *= 2
	}
	return s
}

// resized returns s with length n, reusing its capacity when it suffices.
// Capacity beyond len is zero whenever a table is empty, so reslicing
// never exposes stale entries.
func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// sizeHashed gives an empty table's hashed arrays the given slot count.
func (m *table[V]) sizeHashed(slots int) {
	m.ctrl = resized(m.ctrl, slots)
	m.keys = resized(m.keys, slots)
	m.vals = resized(m.vals, slots)
}

// Put stores v under k, overwriting any previous value.
func (m *table[V]) Put(k int64, v V) {
	if m.std != nil {
		m.std[k] = v
		return
	}
	if m.direct {
		if i := uint64(k) - uint64(m.lo); i < m.span && (!m.member || v == 1) {
			w, s := i>>6, i&63
			old := m.bits[w]
			m.bits[w] = old | 1<<s
			m.n += int(^old >> s & 1) // branch-free: new keys are unpredictable
			if !m.member {
				m.dvals[i] = v
			}
			return
		}
		m.toHashed()
	}
	i, _ := m.slot(k)
	m.vals[i] = v
}

// Add accumulates delta into the value stored under k (absent keys start
// from delta).
func (m *table[V]) Add(k int64, delta V) {
	if m.std != nil {
		m.std[k] += delta
		return
	}
	if m.direct {
		if i := uint64(k) - uint64(m.lo); i < m.span && !m.member {
			w, s := i>>6, i&63
			old := m.bits[w]
			m.bits[w] = old | 1<<s
			if old>>s&1 == 0 {
				m.dvals[i] = delta
				m.n++
			} else {
				m.dvals[i] += delta
			}
			return
		}
		m.toHashed()
	}
	if i, fresh := m.slot(k); fresh {
		m.vals[i] = delta
	} else {
		m.vals[i] += delta
	}
}

// Get returns the value stored under k.
func (m *table[V]) Get(k int64) (V, bool) {
	if m.std != nil {
		v, ok := m.std[k]
		return v, ok
	}
	if m.direct {
		i := uint64(k) - uint64(m.lo)
		if i >= m.span || m.bits[i>>6]&(1<<(i&63)) == 0 {
			return 0, false
		}
		if m.member {
			return 1, true
		}
		return m.dvals[i], true
	}
	if m.n == 0 {
		return 0, false
	}
	mask := uint64(len(m.ctrl) - 1)
	i := hash64(uint64(k)) & mask
	for m.ctrl[i] == 1 {
		if m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// Range calls f for every entry: in ascending key order when direct, in
// slot order when hashed, in map order under std.
func (m *table[V]) Range(f func(k int64, v V)) {
	if m.std != nil {
		for k, v := range m.std {
			f(k, v)
		}
		return
	}
	if m.direct {
		m.rangeDirect(f)
		return
	}
	for i, c := range m.ctrl {
		if c == 1 {
			f(m.keys[i], m.vals[i])
		}
	}
}

// note records a key newly stored in the hashed arrays.
func (m *table[V]) note(k int64) {
	if m.n == 0 || k < m.min {
		m.min = k
	}
	if m.n == 0 || k > m.max {
		m.max = k
	}
	m.n++
}

// slot returns k's index in the hashed arrays, claiming a slot (growing
// first if needed) and reporting fresh when k was absent.
func (m *table[V]) slot(k int64) (i uint64, fresh bool) {
	if 4*(m.n+1) > 3*len(m.ctrl) {
		m.grow()
	}
	mask := uint64(len(m.ctrl) - 1)
	i = hash64(uint64(k)) & mask
	for m.ctrl[i] == 1 {
		if m.keys[i] == k {
			return i, false
		}
		i = (i + 1) & mask
	}
	m.ctrl[i] = 1
	m.keys[i] = k
	m.note(k)
	return i, true
}

// rangeDirect calls f for every entry of the direct arrays, in ascending
// key order.
func (m *table[V]) rangeDirect(f func(k int64, v V)) {
	for w, word := range m.bits {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			v := V(1)
			if !m.member {
				v = m.dvals[i]
			}
			f(m.lo+int64(i), v)
		}
	}
}

// toHashed moves a direct table's entries into the hashed arrays (empty by
// the Reset invariant), sized so the move itself never grows.
func (m *table[V]) toHashed() {
	n := m.n
	m.direct, m.n = false, 0
	if slots := slotsFor(n + 1); len(m.ctrl) < slots {
		m.sizeHashed(slots)
	}
	m.rangeDirect(func(k int64, v V) {
		i, _ := m.slot(k)
		m.vals[i] = v
	})
	clear(m.bits)
	m.member = false
}

func (m *table[V]) grow() {
	size := 2 * len(m.ctrl)
	if size < minMapSlots {
		size = minMapSlots
	}
	oc, ok, ov := m.ctrl, m.keys, m.vals
	m.ctrl = make([]uint8, size)
	m.keys = make([]int64, size)
	m.vals = make([]V, size)
	mask := uint64(size - 1)
	for i, c := range oc {
		if c != 1 {
			continue
		}
		j := hash64(uint64(ok[i])) & mask
		for m.ctrl[j] == 1 {
			j = (j + 1) & mask
		}
		m.ctrl[j] = 1
		m.keys[j] = ok[i]
		m.vals[j] = ov[i]
	}
}
