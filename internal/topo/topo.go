// Package topo builds the virtual tree topologies the Open MPI collective
// algorithms run over, mirroring ompi/mca/coll/base/coll_base_topo.c.
//
// All trees are computed on virtual ranks (vrank = (rank-root+P) mod P, so
// the root is vrank 0) and then translated back to real ranks. The paper's
// implementation-derived models depend on structural properties of these
// trees — the binomial tree's stage structure (Fig. 2/3), the number of
// children of interior binary-tree nodes, chain lengths — so the builders
// here are the ground truth both for the algorithms (package coll) and for
// the analytical models (package model).
package topo

import "fmt"

// Tree is a rooted spanning tree over ranks 0..P-1.
type Tree struct {
	// Size is the number of ranks.
	Size int
	// Root is the rank at the tree root.
	Root int
	// Parent maps each rank to its parent rank; the root maps to -1.
	Parent []int
	// Children maps each rank to its ordered children. The order is the
	// order in which the broadcast algorithms send to them, which the
	// models rely on (e.g. the binomial tree sends to the largest subtree
	// first, exactly like Open MPI's bmtree).
	Children [][]int
}

// vrank returns the virtual rank of r for root.
func vrank(r, root, size int) int { return (r - root + size) % size }

// rrank returns the real rank of virtual rank v for root.
func rrank(v, root, size int) int { return (v + root) % size }

func newTree(size, root int) *Tree {
	t := &Tree{
		Size:     size,
		Root:     root,
		Parent:   make([]int, size),
		Children: make([][]int, size),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	return t
}

func checkArgs(size, root int) error {
	if size < 1 {
		return fmt.Errorf("topo: size %d < 1", size)
	}
	if root < 0 || root >= size {
		return fmt.Errorf("topo: root %d outside 0..%d", root, size-1)
	}
	return nil
}

// BuildKAry builds the k-ary tree of coll_base_topo_build_tree: virtual
// rank v has children fanout·v+1 … fanout·v+fanout (array embedding), so
// fanout 2 yields the balanced binary tree used by the binary and
// split-binary broadcast algorithms.
func BuildKAry(size, root, fanout int) (*Tree, error) {
	if err := checkArgs(size, root); err != nil {
		return nil, err
	}
	if fanout < 1 {
		return nil, fmt.Errorf("topo: fanout %d < 1", fanout)
	}
	t := newTree(size, root)
	for v := 0; v < size; v++ {
		r := rrank(v, root, size)
		if v > 0 {
			t.Parent[r] = rrank((v-1)/fanout, root, size)
		}
		for c := fanout*v + 1; c <= fanout*v+fanout && c < size; c++ {
			t.Children[r] = append(t.Children[r], rrank(c, root, size))
		}
	}
	return t, nil
}

// BuildBinomial builds the binomial tree of coll_base_topo_build_bmtree:
// the parent of virtual rank v is v with its lowest set bit cleared, and
// children are emitted from the largest subtree down (v|mask for
// decreasing mask), matching the send order of Open MPI's binomial
// broadcast and the stage structure in the paper's Fig. 3.
func BuildBinomial(size, root int) (*Tree, error) {
	if err := checkArgs(size, root); err != nil {
		return nil, err
	}
	t := newTree(size, root)
	for v := 0; v < size; v++ {
		r := rrank(v, root, size)
		// Find the lowest set bit: the parent link.
		low := 0
		for mask := 1; mask < size; mask <<= 1 {
			if v&mask != 0 {
				low = mask
				break
			}
		}
		if v > 0 {
			t.Parent[r] = rrank(v&^low, root, size)
		}
		// Children: v | mask for mask below low (or any mask for the root),
		// largest first.
		top := low
		if v == 0 {
			top = 1
			for top < size {
				top <<= 1
			}
		}
		for mask := top >> 1; mask > 0; mask >>= 1 {
			c := v | mask
			if c != v && c < size {
				t.Children[r] = append(t.Children[r], rrank(c, root, size))
			}
		}
	}
	return t, nil
}

// BuildChain builds the chain topology of coll_base_topo_build_chain: the
// P-1 non-root ranks are split into nchains consecutive chains; the root's
// children are the chain heads and every other node has exactly one child.
// nchains = 1 is the pipeline topology; nchains = K is the paper's K-Chain
// tree.
func BuildChain(size, root, nchains int) (*Tree, error) {
	if err := checkArgs(size, root); err != nil {
		return nil, err
	}
	if nchains < 1 {
		return nil, fmt.Errorf("topo: nchains %d < 1", nchains)
	}
	t := newTree(size, root)
	rest := size - 1
	if nchains > rest && rest > 0 {
		nchains = rest
	}
	if rest == 0 {
		return t, nil
	}
	base := rest / nchains
	extra := rest % nchains
	v := 1
	rootRank := rrank(0, root, size)
	for c := 0; c < nchains; c++ {
		length := base
		if c < extra {
			length++
		}
		if length == 0 {
			continue
		}
		head := rrank(v, root, size)
		t.Children[rootRank] = append(t.Children[rootRank], head)
		t.Parent[head] = rootRank
		prev := head
		for i := 1; i < length; i++ {
			cur := rrank(v+i, root, size)
			t.Parent[cur] = prev
			t.Children[prev] = append(t.Children[prev], cur)
			prev = cur
		}
		v += length
	}
	return t, nil
}

// BuildLinear builds the flat tree of the basic linear broadcast: the root
// is the parent of every other rank.
func BuildLinear(size, root int) (*Tree, error) {
	if err := checkArgs(size, root); err != nil {
		return nil, err
	}
	t := newTree(size, root)
	for v := 1; v < size; v++ {
		r := rrank(v, root, size)
		t.Parent[r] = root
		t.Children[root] = append(t.Children[root], r)
	}
	return t, nil
}

// Depth returns the number of tree edges between the root and rank r.
func (t *Tree) Depth(r int) int {
	d := 0
	for t.Parent[r] != -1 {
		r = t.Parent[r]
		d++
	}
	return d
}

// Height returns the maximum Depth over all ranks.
func (t *Tree) Height() int {
	h := 0
	for r := 0; r < t.Size; r++ {
		if d := t.Depth(r); d > h {
			h = d
		}
	}
	return h
}

// IsLeaf reports whether rank r has no children.
func (t *Tree) IsLeaf(r int) bool { return len(t.Children[r]) == 0 }

// Validate checks the structural invariants every topology must satisfy:
// exactly one root, parent/child links mutually consistent, all ranks
// reachable from the root, and no cycles. The property-based tests run it
// over randomly drawn (size, root, fanout) triples.
func (t *Tree) Validate() error {
	if t.Size < 1 || len(t.Parent) != t.Size || len(t.Children) != t.Size {
		return fmt.Errorf("topo: malformed tree container")
	}
	if t.Root < 0 || t.Root >= t.Size {
		return fmt.Errorf("topo: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("topo: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	for r := 0; r < t.Size; r++ {
		if r != t.Root && (t.Parent[r] < 0 || t.Parent[r] >= t.Size) {
			return fmt.Errorf("topo: rank %d has invalid parent %d", r, t.Parent[r])
		}
		for _, c := range t.Children[r] {
			if c < 0 || c >= t.Size {
				return fmt.Errorf("topo: rank %d has invalid child %d", r, c)
			}
			if t.Parent[c] != r {
				return fmt.Errorf("topo: child link %d->%d not mirrored by parent link (parent[%d]=%d)", r, c, c, t.Parent[c])
			}
		}
	}
	// Reachability via BFS from the root; also catches cycles since a tree
	// reaching all Size nodes with Size-1 edges cannot have one.
	seen := make([]bool, t.Size)
	queue := []int{t.Root}
	seen[t.Root] = true
	count := 1
	edges := 0
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for _, c := range t.Children[r] {
			edges++
			if seen[c] {
				return fmt.Errorf("topo: rank %d reached twice", c)
			}
			seen[c] = true
			count++
			queue = append(queue, c)
		}
	}
	if count != t.Size {
		return fmt.Errorf("topo: only %d of %d ranks reachable from root", count, t.Size)
	}
	if edges != t.Size-1 {
		return fmt.Errorf("topo: %d edges, want %d", edges, t.Size-1)
	}
	return nil
}

// StageWidths returns, for each broadcast stage i (a stage is one tree
// level), the number of children of the busiest node at depth i-1. The
// binomial model uses this to reason about the per-stage linear broadcasts
// of the paper's Fig. 3.
func (t *Tree) StageWidths() []int {
	h := t.Height()
	widths := make([]int, h)
	for r := 0; r < t.Size; r++ {
		if len(t.Children[r]) == 0 {
			continue
		}
		d := t.Depth(r)
		if d < h && len(t.Children[r]) > widths[d] {
			widths[d] = len(t.Children[r])
		}
	}
	return widths
}
