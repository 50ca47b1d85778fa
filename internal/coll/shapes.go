package coll

import (
	"sync"

	"mpicollperf/internal/topo"
)

// A collective's tree depends only on its shape, the communicator size
// and the root, yet every rank of every call needs it; built per rank, a
// compile of P ranks would build the same P-node tree P times. The trees
// (and the split-binary pairing built on one) are therefore shared,
// immutable, from a small cache of the most recently built shapes. The
// cache is bounded, so a process that sees many communicator sizes (the
// daemon serves user-chosen platforms) holds at most shapeSlots of them.
// Its contents never change a result: a miss rebuilds the same tree.

// shape names a cached tree structure.
type shape uint8

const (
	shapeChain       shape = iota // single chain (pipeline)
	shapeKChain                   // DefaultKChainFanout chains
	shapeBinary                   // balanced binary tree
	shapeBinomial                 // binomial tree
	shapeSplitBinary              // binary tree plus split-binary pairing
)

// shapeKey identifies one cached structure.
type shapeKey struct {
	shape      shape
	size, root int
}

// shapeEntry is one cached structure: its tree, and for shapeSplitBinary
// the pairing.
type shapeEntry struct {
	tree  *topo.Tree
	split *splitShape
}

// shapeSlots bounds the cache. A sweep touches a few shapes at each of a
// few dozen communicator sizes, and a miss costs one tree build.
const shapeSlots = 64

// shapes is the cache: a fixed ring of slots, refilled round-robin.
var shapes struct {
	sync.Mutex
	keys    [shapeSlots]shapeKey
	entries [shapeSlots]shapeEntry
	n, next int
}

// cachedShape returns the structure for k, building it on a miss. The
// result is shared and must not be modified. size and root must be valid.
func cachedShape(k shapeKey) shapeEntry {
	shapes.Lock()
	defer shapes.Unlock()
	for i := 0; i < shapes.n; i++ {
		if shapes.keys[i] == k {
			return shapes.entries[i]
		}
	}
	e := buildShape(k)
	i := shapes.next
	shapes.keys[i], shapes.entries[i] = k, e
	shapes.next = (i + 1) % shapeSlots
	shapes.n = max(shapes.n, i+1)
	return e
}

// buildShape builds the structure k names.
func buildShape(k shapeKey) shapeEntry {
	switch k.shape {
	case shapeChain:
		return shapeEntry{tree: mustTree(topo.BuildChain(k.size, k.root, 1))}
	case shapeKChain:
		return shapeEntry{tree: mustTree(topo.BuildChain(k.size, k.root, DefaultKChainFanout))}
	case shapeBinary:
		return shapeEntry{tree: mustTree(topo.BuildKAry(k.size, k.root, 2))}
	case shapeBinomial:
		return shapeEntry{tree: mustTree(topo.BuildBinomial(k.size, k.root))}
	default:
		return shapeEntry{split: buildSplitShape(mustTree(topo.BuildKAry(k.size, k.root, 2)), k.root)}
	}
}

// sharedTree returns the shared tree of the given shape over size ranks.
func sharedTree(s shape, size, root int) *topo.Tree {
	return cachedShape(shapeKey{shape: s, size: size, root: root}).tree
}
