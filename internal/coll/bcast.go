package coll

import (
	"fmt"

	"mpicollperf/internal/mpi"
	"mpicollperf/internal/topo"
)

// BcastAlgorithm identifies one of the Open MPI 3.1 broadcast algorithms.
type BcastAlgorithm int

const (
	// BcastLinear is ompi_coll_base_bcast_intra_basic_linear: the root
	// posts non-blocking sends of the whole message to every other rank
	// and waits for all of them; no segmentation.
	BcastLinear BcastAlgorithm = iota
	// BcastChain is Open MPI's "pipeline": a single chain of processes,
	// segmented (the paper's Chain tree algorithm).
	BcastChain
	// BcastKChain is Open MPI's "chain" with fanout K (default 4): the
	// non-root ranks form K parallel chains fed by the root (the paper's
	// K-Chain tree algorithm).
	BcastKChain
	// BcastBinary runs the segmented generic engine over the balanced
	// binary tree.
	BcastBinary
	// BcastSplitBinary splits the message in two halves pipelined down the
	// two subtrees of a binary tree, followed by a pairwise exchange of
	// halves between the subtrees.
	BcastSplitBinary
	// BcastBinomial runs the segmented generic engine over the binomial
	// tree (the algorithm modelled in detail in the paper's §3.1).
	BcastBinomial

	numBcastAlgorithms = iota
)

// DefaultKChainFanout is the number of chains the K-chain algorithm uses,
// matching Open MPI's default chain fanout.
const DefaultKChainFanout = 4

// BcastAlgorithms lists all algorithms in a stable order.
func BcastAlgorithms() []BcastAlgorithm {
	out := make([]BcastAlgorithm, numBcastAlgorithms)
	for i := range out {
		out[i] = BcastAlgorithm(i)
	}
	return out
}

// String returns the paper's name for the algorithm.
func (a BcastAlgorithm) String() string {
	switch a {
	case BcastLinear:
		return "linear"
	case BcastChain:
		return "chain"
	case BcastKChain:
		return "k_chain"
	case BcastBinary:
		return "binary"
	case BcastSplitBinary:
		return "split_binary"
	case BcastBinomial:
		return "binomial"
	}
	return fmt.Sprintf("BcastAlgorithm(%d)", int(a))
}

// ParseBcastAlgorithm converts a name produced by String back to the
// algorithm identifier.
func ParseBcastAlgorithm(name string) (BcastAlgorithm, error) {
	for _, a := range BcastAlgorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("coll: unknown broadcast algorithm %q", name)
}

// Bcast broadcasts m from root to all ranks using the chosen algorithm and
// segment size (ignored by the linear algorithm). On the root, m carries
// the payload; on other ranks, m is the destination. It must be called by
// every rank.
func Bcast(p *mpi.Proc, alg BcastAlgorithm, root int, m Msg, segSize int) {
	checkRoot(p, root)
	m.check()
	if p.Size() == 1 {
		return
	}
	switch alg {
	case BcastLinear:
		bcastBasicLinear(p, root, m)
	case BcastChain:
		bcastGeneric(p, root, m, segSize, mustTree(topo.BuildChain(p.Size(), root, 1)))
	case BcastKChain:
		bcastGeneric(p, root, m, segSize, mustTree(topo.BuildChain(p.Size(), root, DefaultKChainFanout)))
	case BcastBinary:
		bcastGeneric(p, root, m, segSize, mustTree(topo.BuildKAry(p.Size(), root, 2)))
	case BcastSplitBinary:
		bcastSplitBinary(p, root, m, segSize)
	case BcastBinomial:
		bcastGeneric(p, root, m, segSize, mustTree(topo.BuildBinomial(p.Size(), root)))
	default:
		panic(fmt.Errorf("coll: unknown broadcast algorithm %d", int(alg)))
	}
}

// bcastBasicLinear mirrors ompi_coll_base_bcast_intra_basic_linear. It is
// also the "linear tree broadcast algorithm with non-blocking
// communication" whose slowdown relative to a single point-to-point
// transfer defines the paper's γ(P) (§4.1): all P-1 sends are posted
// concurrently and serialise on the root's NIC.
func bcastBasicLinear(p *mpi.Proc, root int, m Msg) {
	me := p.Rank()
	if me != root {
		p.Recv(root, tagBcast, m.Data)
		return
	}
	reqs := make([]*mpi.Request, 0, p.Size()-1)
	for r := 0; r < p.Size(); r++ {
		if r == root {
			continue
		}
		reqs = append(reqs, p.Isend(r, tagBcast, m.Data, m.Size))
	}
	p.WaitAll(reqs...)
}

// splitPlan captures the deterministic structure every rank derives
// locally for the split-binary broadcast: which subtree each rank is in,
// the two halves, and the pairing for the final exchange.
type splitPlan struct {
	tree *topo.Tree
	// subtree[r] is 0 (left), 1 (right) or -1 for the root.
	subtree []int
	// halves[h] is the byte range [lo,hi) of half h.
	lo, hi [2]int
	// partner[r] is the rank r exchanges halves with, or -1 if r has no
	// partner (the subtrees differ in size).
	partner []int
	// serves[r] lists unpaired ranks of the opposite subtree that rank r
	// additionally sends its half to, and server[u] is the rank an
	// unpaired rank u receives its missing half from.
	serves map[int][]int
	server map[int]int
}

// planSplitBinary computes the split-binary structure for P >= 3.
func planSplitBinary(size, root int, m Msg, segSize int) splitPlan {
	pl := splitPlan{tree: mustTree(topo.BuildKAry(size, root, 2))}
	pl.subtree = make([]int, size)
	pl.partner = make([]int, size)
	for r := range pl.subtree {
		pl.subtree[r] = -1
		pl.partner[r] = -1
	}
	// BFS from each of the root's (two) children to label subtrees in a
	// deterministic order; the BFS orders also drive the pairing.
	var order [2][]int
	for h, head := range pl.tree.Children[root] {
		queue := []int{head}
		for len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			pl.subtree[r] = h
			order[h] = append(order[h], r)
			queue = append(queue, pl.tree.Children[r]...)
		}
	}
	// Split the segments between the halves: the left half gets
	// ceil(ns/2) segments, like Open MPI rounds the split point to a
	// segment boundary.
	s := segmented(m, segSize)
	nsLeft := (s.segments + 1) / 2
	pl.lo[0], pl.hi[0] = 0, min(nsLeft*s.segSize, m.Size)
	if s.segments == 1 {
		pl.hi[0] = m.Size
	}
	pl.lo[1], pl.hi[1] = pl.hi[0], m.Size
	// Pair the i-th node of the left BFS order with the i-th of the right.
	n := min(len(order[0]), len(order[1]))
	for i := 0; i < n; i++ {
		a, b := order[0][i], order[1][i]
		pl.partner[a] = b
		pl.partner[b] = a
	}
	// The array-embedded binary tree can leave the subtrees unequal (for
	// P=90 the split is 58/31), so the surplus ranks of the bigger subtree
	// have no partner. Each fetches its missing half from a node of the
	// smaller subtree, which holds that half natively from the pipeline
	// phase; the extra sends are spread round-robin so no single node
	// serialises more than ceil(surplus/n) additional transfers. (Open MPI
	// instead falls back for awkward sizes; the relay keeps the algorithm
	// defined for every P while preserving its cost structure.)
	pl.serves = make(map[int][]int)
	pl.server = make(map[int]int)
	for h := 0; h < 2; h++ {
		for i := n; i < len(order[h]); i++ {
			u := order[h][i]
			srv := order[1-h][i%n]
			pl.server[u] = srv
			pl.serves[srv] = append(pl.serves[srv], u)
		}
	}
	return pl
}

// bcastSplitBinary mirrors ompi_coll_base_bcast_intra_split_bintree: the
// message is cut in two halves; half h is pipelined down subtree h of a
// balanced binary tree, and afterwards every rank swaps halves with a
// partner from the opposite subtree. Ranks left without a partner (the
// subtrees may differ in size by more than the pairing covers) receive
// their missing half from the root. With fewer than 3 ranks or fewer than
// 2 segments the split is meaningless and the binary tree algorithm is
// used, mirroring Open MPI's fallback to a non-split broadcast.
func bcastSplitBinary(p *mpi.Proc, root int, m Msg, segSize int) {
	size := p.Size()
	s := segmented(m, segSize)
	if size < 3 || s.segments < 2 || m.Size < 2 {
		bcastGeneric(p, root, m, segSize, mustTree(topo.BuildKAry(size, root, 2)))
		return
	}
	pl := planSplitBinary(size, root, m, segSize)
	me := p.Rank()

	if me == root {
		// Pipeline half h to child h, one segment of each half per step.
		halves := [2]segmentation{
			segmented(m.slice(pl.lo[0], pl.hi[0]), segSize),
			segmented(m.slice(pl.lo[1], pl.hi[1]), segSize),
		}
		children := pl.tree.Children[root]
		steps := halves[0].segments
		if len(children) > 1 && halves[1].segments > steps {
			steps = halves[1].segments
		}
		var reqs []*mpi.Request
		for i := 0; i < steps; i++ {
			reqs = reqs[:0]
			for h, child := range children {
				if i < halves[h].segments {
					seg := halves[h].seg(i)
					reqs = append(reqs, p.Isend(child, tagBcast, seg.Data, seg.Size))
				}
			}
			p.WaitAll(reqs...)
		}
		return
	}

	// Non-root: receive and forward my half down my subtree.
	h := pl.subtree[me]
	myHalf := m.slice(pl.lo[h], pl.hi[h])
	bcastHalfPipelined(p, pl.tree, myHalf, segSize)

	// Exchange halves: paired ranks swap with their partner; ranks serving
	// unpaired surplus nodes of the opposite subtree additionally send
	// them their native half; unpaired ranks receive from their server.
	other := m.slice(pl.lo[1-h], pl.hi[1-h])
	var reqs []*mpi.Request
	if partner := pl.partner[me]; partner >= 0 {
		reqs = append(reqs,
			p.Irecv(partner, tagXchg, other.Data),
			p.Isend(partner, tagXchg, myHalf.Data, myHalf.Size))
	} else {
		reqs = append(reqs, p.Irecv(pl.server[me], tagXchg, other.Data))
	}
	for _, u := range pl.serves[me] {
		reqs = append(reqs, p.Isend(u, tagXchg, myHalf.Data, myHalf.Size))
	}
	p.WaitAll(reqs...)
}

// bcastHalfPipelined is the interior/leaf part of the generic engine,
// operating on one half of the message within the caller's subtree.
func bcastHalfPipelined(p *mpi.Proc, tree *topo.Tree, half Msg, segSize int) {
	s := segmented(half, segSize)
	me := p.Rank()
	parent := tree.Parent[me]
	children := tree.Children[me]
	var recvReqs [2]*mpi.Request
	sendReqs := make([]*mpi.Request, len(children))
	recvReqs[0] = p.Irecv(parent, tagBcast, s.seg(0).Data)
	for i := 1; i < s.segments; i++ {
		cur := i & 1
		recvReqs[cur] = p.Irecv(parent, tagBcast, s.seg(i).Data)
		p.Wait(recvReqs[cur^1])
		prev := s.seg(i - 1)
		for c, child := range children {
			sendReqs[c] = p.Isend(child, tagBcast, prev.Data, prev.Size)
		}
		p.WaitAll(sendReqs...)
	}
	p.Wait(recvReqs[(s.segments-1)&1])
	seg := s.seg(s.segments - 1)
	for c, child := range children {
		sendReqs[c] = p.Isend(child, tagBcast, seg.Data, seg.Size)
	}
	p.WaitAll(sendReqs...)
}
