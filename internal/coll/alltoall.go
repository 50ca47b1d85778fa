package coll

import (
	"fmt"

	"mpicollperf/internal/mpi"
)

// AlltoallAlgorithm identifies an all-to-all personalised exchange
// implementation.
type AlltoallAlgorithm int

const (
	// AlltoallLinear posts all P-1 sends and receives at once (Open MPI's
	// basic linear algorithm).
	AlltoallLinear AlltoallAlgorithm = iota
	// AlltoallPairwise runs P-1 rounds; in round k every rank exchanges
	// with partner (rank XOR k adjusted for non-powers: (rank+k) mod P
	// send, (rank-k) mod P receive), keeping exactly one exchange in
	// flight per rank.
	AlltoallPairwise
	// AlltoallBruck is the log-round store-and-forward algorithm: messages
	// whose destination's k-th base-2 digit is set travel together in
	// round k, trading bandwidth (each payload moves up to log2 P times)
	// for latency.
	AlltoallBruck

	numAlltoallAlgorithms = iota
)

// String returns the algorithm's name.
func (a AlltoallAlgorithm) String() string {
	switch a {
	case AlltoallLinear:
		return "linear"
	case AlltoallPairwise:
		return "pairwise"
	case AlltoallBruck:
		return "bruck"
	}
	return fmt.Sprintf("AlltoallAlgorithm(%d)", int(a))
}

// AlltoallAlgorithms lists all alltoall algorithms.
func AlltoallAlgorithms() []AlltoallAlgorithm {
	out := make([]AlltoallAlgorithm, numAlltoallAlgorithms)
	for i := range out {
		out[i] = AlltoallAlgorithm(i)
	}
	return out
}

// Alltoall performs a personalised exchange: send holds Size()*blockSize
// bytes with the block for rank r at offset r*blockSize, and recv (same
// layout) receives rank r's block for this rank at offset r*blockSize. A
// rank's block for itself is copied locally.
func Alltoall(p *mpi.Proc, alg AlltoallAlgorithm, send, recv Msg, blockSize int) {
	send.check()
	recv.check()
	if blockSize < 0 {
		panic(fmt.Errorf("coll: negative alltoall block size %d", blockSize))
	}
	want := blockSize * p.Size()
	if send.Size != want || recv.Size != want {
		panic(fmt.Errorf("coll: alltoall buffers (%d, %d) bytes, want %d", send.Size, recv.Size, want))
	}
	if (send.Data == nil) != (recv.Data == nil) {
		panic(fmt.Errorf("coll: alltoall buffers must both be real or both synthetic"))
	}
	me := p.Rank()
	if send.Data != nil {
		copy(recv.Data[me*blockSize:(me+1)*blockSize], send.Data[me*blockSize:(me+1)*blockSize])
	}
	if p.Size() == 1 {
		return
	}
	switch alg {
	case AlltoallLinear:
		alltoallLinear(p, send, recv, blockSize)
	case AlltoallPairwise:
		alltoallPairwise(p, send, recv, blockSize)
	case AlltoallBruck:
		alltoallBruck(p, send, recv, blockSize)
	default:
		panic(fmt.Errorf("coll: unknown alltoall algorithm %d", int(alg)))
	}
}

func alltoallLinear(p *mpi.Proc, send, recv Msg, bs int) {
	size := p.Size()
	me := p.Rank()
	reqs := p.Requests(2 * (size - 1))
	for r := 0; r < size; r++ {
		if r == me {
			continue
		}
		rb := recv.slice(r*bs, (r+1)*bs)
		reqs = append(reqs, p.Irecv(r, tagAlltoall, rb.Data))
	}
	for r := 0; r < size; r++ {
		if r == me {
			continue
		}
		sb := send.slice(r*bs, (r+1)*bs)
		reqs = append(reqs, p.Isend(r, tagAlltoall, sb.Data, sb.Size))
	}
	p.WaitAll(reqs...)
}

func alltoallPairwise(p *mpi.Proc, send, recv Msg, bs int) {
	size := p.Size()
	me := p.Rank()
	for k := 1; k < size; k++ {
		to := (me + k) % size
		from := (me - k + size) % size
		sb := send.slice(to*bs, (to+1)*bs)
		rb := recv.slice(from*bs, (from+1)*bs)
		rs := p.Isend(to, tagAlltoall, sb.Data, sb.Size)
		rr := p.Irecv(from, tagAlltoall, rb.Data)
		p.WaitAll(rs, rr)
	}
}

// alltoallBruck works in a rotated block space: rank r first rotates its
// send blocks so that the block for destination (r+i) mod P sits at slot
// i. In round k (distance d = 2^k) every slot whose index has bit k set is
// shipped to rank (r+d) mod P in a single aggregated message... after
// ceil(log2 P) rounds slot i holds the block *from* rank (r-i) mod P, and
// a final rotation restores rank order.
func alltoallBruck(p *mpi.Proc, send, recv Msg, bs int) {
	size := p.Size()
	me := p.Rank()
	real := send.Data != nil

	// work[i] = payload currently in slot i (destination (me+i) mod P).
	var work [][]byte
	if real {
		work = make([][]byte, size)
		for i := 0; i < size; i++ {
			dst := (me + i) % size
			blk := make([]byte, bs)
			copy(blk, send.Data[dst*bs:(dst+1)*bs])
			work[i] = blk
		}
	}
	for dist := 1; dist < size; dist <<= 1 {
		// Collect the slots with this bit set.
		var slots []int
		for i := 1; i < size; i++ {
			if i&dist != 0 {
				slots = append(slots, i)
			}
		}
		n := len(slots)
		to := (me + dist) % size
		from := (me - dist + size) % size
		var sendBuf, recvBuf []byte
		if real {
			sendBuf = make([]byte, n*bs)
			for j, s := range slots {
				copy(sendBuf[j*bs:(j+1)*bs], work[s])
			}
			recvBuf = make([]byte, n*bs)
		}
		rs := p.Isend(to, tagAlltoall, sendBuf, n*bs)
		rr := p.Irecv(from, tagAlltoall, recvBuf)
		p.WaitAll(rs, rr)
		if real {
			for j, s := range slots {
				copy(work[s], recvBuf[j*bs:(j+1)*bs])
			}
		}
	}
	// Slot i now holds the block sent *to me* by rank (me-i) mod P.
	if real {
		for i := 0; i < size; i++ {
			src := (me - i + size) % size
			copy(recv.Data[src*bs:(src+1)*bs], work[i])
		}
	}
}
