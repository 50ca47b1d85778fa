package coll

import (
	"fmt"

	"mpicollperf/internal/mpi"
)

// ScatterAlgorithm identifies a scatter implementation.
type ScatterAlgorithm int

const (
	// ScatterLinear is the basic linear scatter: the root sends each rank
	// its block with non-blocking sends.
	ScatterLinear ScatterAlgorithm = iota
	// ScatterBinomial sends whole subtree blocks down the binomial tree,
	// halving the data forwarded at each level.
	ScatterBinomial

	numScatterAlgorithms = iota
)

// String returns the algorithm's name.
func (a ScatterAlgorithm) String() string {
	switch a {
	case ScatterLinear:
		return "linear"
	case ScatterBinomial:
		return "binomial"
	}
	return fmt.Sprintf("ScatterAlgorithm(%d)", int(a))
}

// ScatterAlgorithms lists all scatter algorithms.
func ScatterAlgorithms() []ScatterAlgorithm {
	out := make([]ScatterAlgorithm, numScatterAlgorithms)
	for i := range out {
		out[i] = ScatterAlgorithm(i)
	}
	return out
}

// Scatter distributes blockSize bytes to every rank from the root. On the
// root, m must cover Size()*blockSize bytes laid out by rank; on other
// ranks, m is the blockSize-byte destination.
func Scatter(p *mpi.Proc, alg ScatterAlgorithm, root int, m Msg, blockSize int) {
	checkRoot(p, root)
	m.check()
	if blockSize < 0 {
		panic(fmt.Errorf("coll: negative scatter block size %d", blockSize))
	}
	if p.Rank() == root {
		if m.Size != blockSize*p.Size() {
			panic(fmt.Errorf("coll: scatter root buffer %d bytes, want %d", m.Size, blockSize*p.Size()))
		}
	} else if m.Size != blockSize {
		panic(fmt.Errorf("coll: scatter destination %d bytes, want %d", m.Size, blockSize))
	}
	if p.Size() == 1 {
		return
	}
	switch alg {
	case ScatterLinear:
		scatterLinear(p, root, m, blockSize)
	case ScatterBinomial:
		scatterBinomial(p, root, m, blockSize)
	default:
		panic(fmt.Errorf("coll: unknown scatter algorithm %d", int(alg)))
	}
}

func scatterLinear(p *mpi.Proc, root int, m Msg, blockSize int) {
	me := p.Rank()
	if me != root {
		p.Recv(root, tagScatter, m.Data)
		return
	}
	reqs := p.Requests(p.Size() - 1)
	for r := 0; r < p.Size(); r++ {
		if r == root {
			continue
		}
		block := m.slice(r*blockSize, (r+1)*blockSize)
		reqs = append(reqs, p.Isend(r, tagScatter, block.Data, block.Size))
	}
	p.WaitAll(reqs...)
}

// scatterBinomial pushes vrank-contiguous subtree blocks down the binomial
// tree (the mirror image of gatherBinomial).
func scatterBinomial(p *mpi.Proc, root int, m Msg, blockSize int) {
	size := p.Size()
	me := p.Rank()
	tree := sharedTree(shapeBinomial, size, root)
	vr := func(r int) int { return (r - root + size) % size }
	sub := binomialSubtreeSize(vr(me), size)

	// Receive my subtree's vrank-ordered block (the root builds it from m).
	var buf Msg
	if m.Data != nil {
		buf = Bytes(make([]byte, sub*blockSize))
	} else {
		buf = Synthetic(sub * blockSize)
	}
	if me == root {
		if m.Data != nil {
			for v := 0; v < size; v++ {
				r := (v + root) % size
				copy(buf.Data[v*blockSize:(v+1)*blockSize], m.Data[r*blockSize:(r+1)*blockSize])
			}
		}
	} else {
		p.Recv(tree.Parent[me], tagScatter, buf.Data)
	}
	// Forward each child its subtree slice, largest subtree first (the
	// children are already in that order).
	reqs := p.Requests(len(tree.Children[me]))
	for _, c := range tree.Children[me] {
		off := (vr(c) - vr(me)) * blockSize
		csub := binomialSubtreeSize(vr(c), size)
		blk := buf.slice(off, off+csub*blockSize)
		reqs = append(reqs, p.Isend(c, tagScatter, blk.Data, blk.Size))
	}
	p.WaitAll(reqs...)
	// Keep my own block.
	if me != root && m.Data != nil {
		copy(m.Data, buf.Data[:blockSize])
	}
}
