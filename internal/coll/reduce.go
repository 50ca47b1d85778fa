package coll

import (
	"fmt"

	"mpicollperf/internal/mpi"
	"mpicollperf/internal/topo"
)

// ReduceOp combines src into dst element-wise; both slices have equal
// length. Operations must be associative and commutative (the tree
// algorithms reorder the combines).
type ReduceOp func(dst, src []byte)

// OpSum adds byte-wise modulo 256; enough to verify reduction dataflow in
// tests while staying allocation-free.
func OpSum(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// OpMax keeps the byte-wise maximum.
func OpMax(dst, src []byte) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// ReduceAlgorithm identifies a reduce implementation.
type ReduceAlgorithm int

const (
	// ReduceLinear has the root receive every rank's contribution and
	// combine them locally.
	ReduceLinear ReduceAlgorithm = iota
	// ReduceBinomial combines partial results up the binomial tree.
	ReduceBinomial
	// ReducePipeline combines segment-by-segment along a chain, the
	// reduction mirror of the pipelined broadcast.
	ReducePipeline

	numReduceAlgorithms = iota
)

// String returns the algorithm's name.
func (a ReduceAlgorithm) String() string {
	switch a {
	case ReduceLinear:
		return "linear"
	case ReduceBinomial:
		return "binomial"
	case ReducePipeline:
		return "pipeline"
	}
	return fmt.Sprintf("ReduceAlgorithm(%d)", int(a))
}

// ReduceAlgorithms lists all reduce algorithms.
func ReduceAlgorithms() []ReduceAlgorithm {
	out := make([]ReduceAlgorithm, numReduceAlgorithms)
	for i := range out {
		out[i] = ReduceAlgorithm(i)
	}
	return out
}

// Reduce combines every rank's m under op at the root. Each rank passes
// its own contribution in m; on the root, m is combined in place into the
// final result. op is ignored in synthetic mode. segSize is used only by
// the pipeline algorithm.
func Reduce(p *mpi.Proc, alg ReduceAlgorithm, root int, m Msg, op ReduceOp, segSize int) {
	checkRoot(p, root)
	m.check()
	if m.Data != nil && op == nil {
		panic(fmt.Errorf("coll: reduce with real data needs an op"))
	}
	if p.Size() == 1 {
		return
	}
	switch alg {
	case ReduceLinear:
		reduceLinear(p, root, m, op)
	case ReduceBinomial:
		reduceTree(p, root, m, op, sharedTree(shapeBinomial, p.Size(), root))
	case ReducePipeline:
		reducePipeline(p, root, m, op, segSize)
	default:
		panic(fmt.Errorf("coll: unknown reduce algorithm %d", int(alg)))
	}
}

func reduceLinear(p *mpi.Proc, root int, m Msg, op ReduceOp) {
	me := p.Rank()
	if me != root {
		p.Send(root, tagReduce, m.Data, m.Size)
		return
	}
	tmp := makeScratch(m)
	for r := 0; r < p.Size(); r++ {
		if r == root {
			continue
		}
		p.Recv(r, tagReduce, tmp.Data)
		combine(m, tmp, op)
	}
}

// reduceTree combines children's partial results into the local
// contribution, then forwards the accumulated value to the parent.
func reduceTree(p *mpi.Proc, root int, m Msg, op ReduceOp, tree *topo.Tree) {
	me := p.Rank()
	tmp := makeScratch(m)
	for _, c := range tree.Children[me] {
		p.Recv(c, tagReduce, tmp.Data)
		combine(m, tmp, op)
	}
	if me != root {
		p.Send(tree.Parent[me], tagReduce, m.Data, m.Size)
	}
}

// reducePipeline streams segments down a single chain toward the root,
// combining at each hop: the reduction mirror of the chain broadcast, with
// the same (P-2+n_s)-stage cost structure.
func reducePipeline(p *mpi.Proc, root int, m Msg, op ReduceOp, segSize int) {
	tree := sharedTree(shapeChain, p.Size(), root)
	s := segmented(m, segSize)
	me := p.Rank()
	children := tree.Children[me]
	tmp := makeScratch(s.seg(0))
	for i := 0; i < s.segments; i++ {
		seg := s.seg(i)
		if len(children) > 0 {
			// Exactly one child in a chain.
			p.Recv(children[0], tagReduce, sliceData(tmp, 0, seg.Size))
			combine(seg, Msg{Data: sliceData(tmp, 0, seg.Size), Size: seg.Size}, op)
		}
		if me != root {
			p.Send(tree.Parent[me], tagReduce, seg.Data, seg.Size)
		}
	}
}

// makeScratch allocates a receive buffer shaped like m (nil in synthetic
// mode).
func makeScratch(m Msg) Msg {
	if m.Data == nil {
		return Synthetic(m.Size)
	}
	return Bytes(make([]byte, m.Size))
}

func combine(dst, src Msg, op ReduceOp) {
	if dst.Data != nil && op != nil {
		op(dst.Data, src.Data[:dst.Size])
	}
}
