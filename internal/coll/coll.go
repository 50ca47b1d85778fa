// Package coll implements the collective communication algorithms of Open
// MPI 3.1's coll/base component on top of the mpi runtime. It contains the
// six MPI_Bcast algorithms the paper models — linear, chain, K-chain,
// binary, split-binary and binomial — plus the gather algorithm used by
// the paper's parameter-estimation experiments and several additional
// collectives (scatter, reduce, barrier) that round the library out.
//
// The broadcast implementations deliberately mirror the structure of
// ompi_coll_base_bcast_intra_generic and its callers: segmented pipelining
// with double-buffered non-blocking receives, per-segment non-blocking
// sends to children completed before the next segment, and the same tree
// topologies (package topo). The analytical models in package model are
// *derived from this code*, which is exactly the paper's methodology
// ("implementation-derived analytical models").
//
// Every collective works in two payload modes: real mode, where []byte
// buffers are actually moved and can be verified, and synthetic mode
// (nil data with an explicit size), where only virtual time is simulated —
// used by the large benchmark sweeps.
package coll

import (
	"fmt"

	"mpicollperf/internal/mpi"
	"mpicollperf/internal/topo"
)

// Message tags; a single tag per collective suffices because the runtime
// preserves MPI non-overtaking order per (source, tag).
const (
	tagBcast     = 100
	tagGather    = 101
	tagScatter   = 102
	tagReduce    = 103
	tagBarrier   = 104
	tagXchg      = 105 // split-binary pair exchange
	tagAllgather = 106
	tagAllreduce = 107
	tagAlltoall  = 108
)

// Msg describes a collective payload: either a real buffer (Data non-nil,
// Size == len(Data)) or a synthetic message of Size bytes with no payload.
type Msg struct {
	Data []byte
	Size int
}

// Bytes returns a real-mode message over data.
func Bytes(data []byte) Msg { return Msg{Data: data, Size: len(data)} }

// Synthetic returns a payload-free message of n bytes.
func Synthetic(n int) Msg { return Msg{Size: n} }

// check panics when the message is malformed; collective entry points call
// it once.
func (m Msg) check() {
	if m.Data != nil && len(m.Data) != m.Size {
		panic(fmt.Errorf("coll: Msg.Size %d != len(Data) %d", m.Size, len(m.Data)))
	}
	if m.Size < 0 {
		panic(fmt.Errorf("coll: negative Msg.Size %d", m.Size))
	}
}

// slice returns the sub-message covering bytes [lo, hi).
func (m Msg) slice(lo, hi int) Msg {
	if lo < 0 || hi > m.Size || lo > hi {
		panic(fmt.Errorf("coll: slice [%d,%d) of %d-byte message", lo, hi, m.Size))
	}
	if m.Data != nil {
		return Msg{Data: m.Data[lo:hi], Size: hi - lo}
	}
	return Msg{Size: hi - lo}
}

// segmentation describes how a message is cut into segments of at most
// segSize bytes, mirroring Open MPI's COLL_BASE_COMPUTED_SEGCOUNT.
type segmentation struct {
	msg      Msg
	segSize  int
	segments int
}

// segmented validates segSize and returns the segmentation of m. A zero or
// negative segSize, or one at least as large as the message, yields a
// single segment (Open MPI's "segsize 0 = no segmentation" convention).
// Zero-byte messages still produce one (empty) segment so that every rank
// performs the communication pattern.
func segmented(m Msg, segSize int) segmentation {
	m.check()
	if segSize <= 0 || segSize >= m.Size {
		segSize = m.Size
	}
	n := 1
	if m.Size > 0 && segSize > 0 {
		n = (m.Size + segSize - 1) / segSize
	}
	return segmentation{msg: m, segSize: segSize, segments: n}
}

// seg returns segment i.
func (s segmentation) seg(i int) Msg {
	if i < 0 || i >= s.segments {
		panic(fmt.Errorf("coll: segment %d of %d", i, s.segments))
	}
	if s.segments == 1 {
		return s.msg
	}
	lo := i * s.segSize
	hi := lo + s.segSize
	if hi > s.msg.Size {
		hi = s.msg.Size
	}
	return s.msg.slice(lo, hi)
}

// NumSegments reports how many segments a message of size bytes splits
// into at the given segment size (n_s in the paper's formulas).
func NumSegments(size, segSize int) int {
	return segmented(Msg{Size: size}, segSize).segments
}

// bcastGeneric is the segmented, pipelined tree broadcast engine — a
// faithful port of ompi_coll_base_bcast_intra_generic:
//
//   - the root sends each segment to all children with non-blocking sends
//     and completes them before starting the next segment;
//   - interior nodes keep two receive requests in flight (double
//     buffering): they post the receive for segment i+1, wait for segment
//     i, forward it to all children with non-blocking sends, and complete
//     those sends before the next iteration;
//   - leaves pipeline double-buffered receives.
func bcastGeneric(p *mpi.Proc, root int, m Msg, segSize int, tree *topo.Tree) {
	s := segmented(m, segSize)
	me := p.Rank()
	children := tree.Children[me]
	switch {
	case me == root:
		reqs := p.Requests(len(children))[:len(children)]
		for i := 0; i < s.segments; i++ {
			seg := s.seg(i)
			for c, child := range children {
				reqs[c] = p.Isend(child, tagBcast, seg.Data, seg.Size)
			}
			p.WaitAll(reqs...)
		}
	case len(children) > 0:
		parent := tree.Parent[me]
		var recvReqs [2]*mpi.Request
		sendReqs := p.Requests(len(children))[:len(children)]
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
		last := (s.segments - 1) & 1
		p.Wait(recvReqs[last])
		seg := s.seg(s.segments - 1)
		for c, child := range children {
			sendReqs[c] = p.Isend(child, tagBcast, seg.Data, seg.Size)
		}
		p.WaitAll(sendReqs...)
	default:
		parent := tree.Parent[me]
		var recvReqs [2]*mpi.Request
		recvReqs[0] = p.Irecv(parent, tagBcast, s.seg(0).Data)
		for i := 1; i < s.segments; i++ {
			cur := i & 1
			recvReqs[cur] = p.Irecv(parent, tagBcast, s.seg(i).Data)
			p.Wait(recvReqs[cur^1])
		}
		p.Wait(recvReqs[(s.segments-1)&1])
	}
}

// checkRoot panics unless root is a valid rank for p's communicator.
func checkRoot(p *mpi.Proc, root int) {
	if root < 0 || root >= p.Size() {
		panic(fmt.Errorf("coll: root %d outside 0..%d", root, p.Size()-1))
	}
}

func mustTree(t *topo.Tree, err error) *topo.Tree {
	if err != nil {
		panic(err)
	}
	return t
}
