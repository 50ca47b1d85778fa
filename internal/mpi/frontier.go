package mpi

import "math"

// frontier is the replay's set of schedulable ranks, ordered like the
// scheduler's pending heap: smallest key first, ties by rank. A rank has
// at most one entry, so the set is a winner tree indexed by rank rather
// than a heap of entries: changing a rank's entry re-plays the matches on
// its leaf's root-ward path, one compare per level, and the minimum is
// always at the root.
//
// win has 2·leaves nodes, leaves being the next power of two >= nprocs.
// Leaf leaves+rank holds rank while the rank is schedulable and the
// sentinel none (= nprocs) otherwise; internal node i holds the winner of
// its children 2i and 2i+1, so win[1] is the minimum. Leaves are laid out
// in rank order: every rank under a left child is smaller than every rank
// under its right sibling, so "the left child wins ties" is exactly the
// (key, rank) order.
type frontier struct {
	key    []float64 // per-rank key, meaningful while the rank is present
	ord    []uint64  // per-rank ordKey(key); ord[none] is MaxUint64
	win    []int32
	leaves int
	none   int32
}

// ordKey maps a key to an unsigned integer with the same order under <:
// non-negative keys keep their bits under a set top bit, negative keys
// have all bits flipped, and -0 is folded onto +0 first, as -0 == +0.
// Every non-NaN key maps into [1, ordKey(+Inf)], so the sentinel's
// MaxUint64 loses every match, even against a present +Inf.
func ordKey(key float64) uint64 {
	b := math.Float64bits(key + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// size shapes f for nprocs ranks, reusing the backing arrays when large
// enough. The tree is empty after the next reset.
func (f *frontier) size(nprocs int) {
	l := 1
	for l < nprocs {
		l <<= 1
	}
	f.leaves = l
	f.none = int32(nprocs)
	f.key = grow(f.key, nprocs)
	f.ord = grow(f.ord, nprocs+1)
	f.ord[nprocs] = math.MaxUint64
	f.win = grow(f.win, 2*l)
}

// reset empties the tree.
func (f *frontier) reset() {
	for i := range f.win {
		f.win[i] = f.none
	}
}

// min returns the rank with the smallest (key, rank) and its key; rank is
// -1 when the frontier is empty.
func (f *frontier) min() (rank int, key float64) {
	x := f.win[1]
	if x == f.none {
		return -1, 0
	}
	return int(x), f.key[x]
}

// set enters rank at key, or moves it there if it is already present.
func (f *frontier) set(rank int, key float64) {
	i := f.leaves + rank
	if f.win[i] == int32(rank) && math.Float64bits(f.key[rank]) == math.Float64bits(key) {
		// Already present at key (a receive post or a mark leaves the
		// clock as it was): the tree does not change. Bits, not ==, so
		// that a -0 key replaces +0 as the heap it mirrors would.
		return
	}
	f.key[rank] = key
	f.ord[rank] = ordKey(key)
	f.win[i] = int32(rank)
	f.fix(i)
}

// clear removes rank; a rank that is absent stays absent at no cost.
func (f *frontier) clear(rank int) {
	i := f.leaves + rank
	if f.win[i] == f.none {
		return
	}
	f.win[i] = f.none
	f.fix(i)
}

// fix re-plays the matches on leaf i's root-ward path after the leaf
// changed. The match is integer compares and selects only, so the walk
// has no data-dependent branch.
func (f *frontier) fix(i int) {
	w, o := f.win, f.ord
	x := w[i]
	ox := o[x]
	for i > 1 {
		s := w[i^1]
		// The sibling wins when its key is smaller, or equal and it is
		// the left child (i odd): os-1 < ox is os <= ox, as os >= 1.
		if os := o[s]; os-uint64(i&1) < ox {
			x, ox = s, os
		}
		i >>= 1
		w[i] = x
	}
}
