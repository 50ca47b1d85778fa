package mpi

import (
	"container/heap"
	"math"
	"testing"
)

// frontierWidths are the rank counts the frontier differential runs at:
// single-leaf, power-of-two and ragged trees up to the gros width.
var frontierWidths = []int{1, 2, 3, 7, 16, 45, 90, 124}

// frontierKeys is the fuzz key alphabet: few values, so ties are the
// common case, with -0 (equal to +0), a negative key and +Inf (a present
// rank whose key is infinite) as the edges of the tree's integer order.
var frontierKeys = []float64{0, math.Copysign(0, -1), 1e-6, 1e-6, 2.5e-6, -1e-6, math.Inf(1)}

// refEnt is one entry of the reference frontier.
type refEnt struct {
	key   float64
	rank  int
	index int
}

// refFrontier is the reference frontier: a container/heap ordered by
// (key, rank), as the scheduler's pending heap orders operations, with a
// per-rank handle so a present rank's key can be moved.
type refFrontier struct {
	h  []*refEnt
	at []*refEnt
}

func (q *refFrontier) Len() int { return len(q.h) }
func (q *refFrontier) Less(i, j int) bool {
	a, b := q.h[i], q.h[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.rank < b.rank
}
func (q *refFrontier) Swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.h[i].index, q.h[j].index = i, j
}
func (q *refFrontier) Push(x any) {
	e := x.(*refEnt)
	e.index = len(q.h)
	q.h = append(q.h, e)
}
func (q *refFrontier) Pop() any {
	e := q.h[len(q.h)-1]
	q.h = q.h[:len(q.h)-1]
	return e
}

func (q *refFrontier) set(rank int, key float64) {
	if e := q.at[rank]; e != nil {
		e.key = key
		heap.Fix(q, e.index)
		return
	}
	e := &refEnt{key: key, rank: rank}
	q.at[rank] = e
	heap.Push(q, e)
}

func (q *refFrontier) clear(rank int) {
	if e := q.at[rank]; e != nil {
		heap.Remove(q, e.index)
		q.at[rank] = nil
	}
}

func (q *refFrontier) min() (int, float64) {
	if len(q.h) == 0 {
		return -1, 0
	}
	return q.h[0].rank, q.h[0].key
}

// FuzzFrontierOrder is the frontier differential: the replay's winner
// tree and a reference (key, rank) heap, driven by the same sequence of
// set, clear and pop operations, must agree on the minimum after every
// operation — so the replay processes events in the scheduler's order.
// Each op is two bytes: the low two bits of the first pick the operation
// (set twice as often as clear or pop), its high bits the key; the second
// byte picks the rank.
func FuzzFrontierOrder(f *testing.F) {
	seed := uint32(12345)
	for w := range frontierWidths {
		for _, n := range []int{16, 64, 600} {
			ops := make([]byte, n)
			for i := range ops {
				seed = seed*1664525 + 1013904223
				ops[i] = byte(seed >> 24)
			}
			f.Add(uint8(w), ops)
		}
	}
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		n := frontierWidths[int(width)%len(frontierWidths)]
		var tree frontier
		// Size for the widest tree first: the recycled-Replayer case of a
		// tree shrunk inside larger backing arrays.
		tree.size(frontierWidths[len(frontierWidths)-1])
		tree.reset()
		tree.size(n)
		tree.reset()
		ref := &refFrontier{at: make([]*refEnt, n)}
		check := func(step int, what string) int {
			gr, gk := tree.min()
			wr, wk := ref.min()
			// Keys compare by bits: the replay computes with the key the
			// minimum carries, so a -0 must come back as -0.
			if gr != wr || math.Float64bits(gk) != math.Float64bits(wk) {
				t.Fatalf("n=%d step %d %s: tree min (%d, %v), reference (%d, %v)", n, step, what, gr, gk, wr, wk)
			}
			return gr
		}
		for i := 0; i+1 < len(ops); i += 2 {
			rank := int(ops[i+1]) % n
			switch ops[i] & 3 {
			case 0, 1:
				key := frontierKeys[int(ops[i]>>2)%len(frontierKeys)]
				tree.set(rank, key)
				ref.set(rank, key)
			case 2:
				tree.clear(rank)
				ref.clear(rank)
			case 3:
				if r := check(i/2, "pop"); r >= 0 {
					tree.clear(r)
					ref.clear(r)
				}
			}
			check(i/2, "after op")
		}
		// Drain: the full pop order must agree.
		for step := 0; ; step++ {
			r := check(step, "drain")
			if r < 0 {
				break
			}
			tree.clear(r)
			ref.clear(r)
		}
	})
}
