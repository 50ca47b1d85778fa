package coll

import (
	"fmt"

	"mpicollperf/internal/mpi"
)

// GatherAlgorithm identifies a gather implementation.
type GatherAlgorithm int

const (
	// GatherLinearNoSync is the "linear-without-synchronisation" gather of
	// the paper's §4.2: every non-root rank sends its block to the root
	// immediately, and the root collects them with non-blocking receives.
	// The P-1 inbound transfers serialise on the root's receive port, which
	// is why the paper models it as (P-1)·(α + m_g·β) (Formula 8).
	GatherLinearNoSync GatherAlgorithm = iota
	// GatherLinearSync is Open MPI's synchronised linear gather: the root
	// polls each rank in order with a zero-byte ready message before
	// receiving its block, trading time for bounded unexpected-message
	// buffering.
	GatherLinearSync
	// GatherBinomial gathers blocks up a binomial tree; interior nodes
	// forward their whole accumulated subtree block.
	GatherBinomial

	numGatherAlgorithms = iota
)

// String returns the algorithm's name.
func (a GatherAlgorithm) String() string {
	switch a {
	case GatherLinearNoSync:
		return "linear_nosync"
	case GatherLinearSync:
		return "linear_sync"
	case GatherBinomial:
		return "binomial"
	}
	return fmt.Sprintf("GatherAlgorithm(%d)", int(a))
}

// GatherAlgorithms lists all gather algorithms.
func GatherAlgorithms() []GatherAlgorithm {
	out := make([]GatherAlgorithm, numGatherAlgorithms)
	for i := range out {
		out[i] = GatherAlgorithm(i)
	}
	return out
}

// Gather collects blockSize bytes from every rank at the root. On the
// root, m must cover Size()*blockSize bytes and receives rank r's block at
// offset r*blockSize (the root's own block is copied locally); on other
// ranks, m is the blockSize-byte block to contribute. Synthetic messages
// are supported as everywhere else.
func Gather(p *mpi.Proc, alg GatherAlgorithm, root int, m Msg, blockSize int) {
	checkRoot(p, root)
	m.check()
	if blockSize < 0 {
		panic(fmt.Errorf("coll: negative gather block size %d", blockSize))
	}
	if p.Rank() == root {
		if m.Size != blockSize*p.Size() {
			panic(fmt.Errorf("coll: gather root buffer %d bytes, want %d", m.Size, blockSize*p.Size()))
		}
	} else if m.Size != blockSize {
		panic(fmt.Errorf("coll: gather contribution %d bytes, want %d", m.Size, blockSize))
	}
	if p.Size() == 1 {
		return
	}
	switch alg {
	case GatherLinearNoSync:
		gatherLinear(p, root, m, blockSize, false)
	case GatherLinearSync:
		gatherLinear(p, root, m, blockSize, true)
	case GatherBinomial:
		gatherBinomial(p, root, m, blockSize)
	default:
		panic(fmt.Errorf("coll: unknown gather algorithm %d", int(alg)))
	}
}

func gatherLinear(p *mpi.Proc, root int, m Msg, blockSize int, sync bool) {
	me := p.Rank()
	if me != root {
		if sync {
			p.Recv(root, tagGather, nil)
		}
		p.Send(root, tagGather, m.Data, m.Size)
		return
	}
	if sync {
		for r := 0; r < p.Size(); r++ {
			if r == root {
				continue
			}
			p.Send(r, tagGather, nil, 0)
			block := m.slice(r*blockSize, (r+1)*blockSize)
			p.Recv(r, tagGather, block.Data)
		}
		return
	}
	reqs := p.Requests(p.Size() - 1)
	for r := 0; r < p.Size(); r++ {
		if r == root {
			continue
		}
		block := m.slice(r*blockSize, (r+1)*blockSize)
		reqs = append(reqs, p.Irecv(r, tagGather, block.Data))
	}
	p.WaitAll(reqs...)
}

// gatherBinomial gathers up the binomial tree. In vrank space, the subtree
// rooted at v covers the contiguous vrank range [v, v+subtreeSize(v)), so
// each interior node assembles one contiguous block and sends it upward in
// a single message.
func gatherBinomial(p *mpi.Proc, root int, m Msg, blockSize int) {
	size := p.Size()
	me := p.Rank()
	tree := sharedTree(shapeBinomial, size, root)
	vr := func(r int) int { return (r - root + size) % size }
	sub := binomialSubtreeSize(vr(me), size)

	// Assemble my subtree's block in a staging buffer laid out by vrank;
	// the root unshifts it into the rank-ordered result at the end.
	var buf Msg
	if m.Data != nil {
		buf = Bytes(make([]byte, sub*blockSize))
	} else {
		buf = Synthetic(sub * blockSize)
	}
	// My own block sits at the front of my staging buffer.
	if m.Data != nil {
		if me == root {
			copy(buf.Data[:blockSize], m.Data[root*blockSize:(root+1)*blockSize])
		} else {
			copy(buf.Data[:blockSize], m.Data)
		}
	}
	// Receive each child's contiguous subtree block.
	children := tree.Children[me]
	reqs := p.Requests(len(children))
	for _, c := range children {
		off := (vr(c) - vr(me)) * blockSize
		csub := binomialSubtreeSize(vr(c), size)
		reqs = append(reqs, p.Irecv(c, tagGather, sliceData(buf, off, off+csub*blockSize)))
	}
	p.WaitAll(reqs...)
	if me != root {
		p.Send(tree.Parent[me], tagGather, buf.Data, buf.Size)
		return
	}
	// Unshift: staging is vrank-ordered; m is rank-ordered.
	if m.Data != nil {
		for v := 0; v < size; v++ {
			r := (v + root) % size
			copy(m.Data[r*blockSize:(r+1)*blockSize], buf.Data[v*blockSize:(v+1)*blockSize])
		}
	}
}

// sliceData returns the byte sub-slice of a message, or nil in synthetic
// mode.
func sliceData(m Msg, lo, hi int) []byte {
	if m.Data == nil {
		return nil
	}
	return m.Data[lo:hi]
}

// binomialSubtreeSize returns the number of vranks in the binomial subtree
// rooted at vrank v for a tree over size ranks: the range [v, v+2^k) ∩
// [0, size) where 2^k is v's lowest set bit (the whole tree for v = 0).
func binomialSubtreeSize(v, size int) int {
	if v == 0 {
		return size
	}
	low := v & (-v)
	if v+low > size {
		return size - v
	}
	return low
}
