package simnet

import "fmt"

// This file is the timing-replay side of the simulator. A compiled
// execution plan (package mpi) re-times a communication structure many
// times without re-running the scheduler; the per-NIC port bookkeeping and
// the transfer arithmetic it needs live here, next to Transmit, so the two
// code paths cannot drift apart. Replayed transfers are bit-identical to
// Transmit on the same inputs: both use the same expressions in the same
// order.
//
// Replay evaluates repetitions in noise "lanes": a batch of K successive
// repetitions shares one struct-of-arrays port state (lane-major stripes),
// and the jitter factors for the whole batch are drawn up front from the
// network's single noise stream in plan order — lane 0 consumes the draws
// of the first repetition, lane 1 the next, and so on, exactly as the
// scheduler would have consumed them. Lanes are chained, not independent:
// repetition k+1 starts from the barrier-aligned state repetition k left
// behind, so SeedLane copies a predecessor stripe before a lane is walked.

// Ports is lane-parallel per-NIC port-free bookkeeping for timing replay.
// The per-transfer link constants travel with each replayed event as a
// LinkTiming (captured from TimingFor at plan-compile time), so perturbed
// links and straggling nodes replay with exactly the parameters the
// scheduler used. Stripes are lane-major: lane l's port state for NIC i
// lives at [l*NICs() + i].
type Ports struct {
	nics  int
	lanes int
	// SendFree and RecvFree hold, per lane and NIC, the virtual time the
	// port becomes idle.
	sendFree []float64
	recvFree []float64
}

// NewPorts snapshots the network's current port state into every lane of a
// fresh Ports. lanes must be at least 1.
func (n *Network) NewPorts(lanes int) (*Ports, error) {
	return n.SnapshotPortsInto(nil, lanes)
}

// SnapshotPortsInto re-snapshots the network's current port state into
// every lane of p, reshaping p to lanes lanes and reusing its backing
// stripes when they are large enough (they grow monotonically, so a
// recycled Ports stops allocating once it has seen the largest lane
// count). A nil p builds a fresh Ports. lanes must be at least 1.
func (n *Network) SnapshotPortsInto(p *Ports, lanes int) (*Ports, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("simnet: %d replay lanes, need >= 1", lanes)
	}
	nics := n.cfg.NICs()
	if p == nil {
		p = &Ports{}
	}
	p.nics, p.lanes = nics, lanes
	need := lanes * nics
	if cap(p.sendFree) < need {
		p.sendFree = make([]float64, need)
		p.recvFree = make([]float64, need)
	}
	p.sendFree = p.sendFree[:need]
	p.recvFree = p.recvFree[:need]
	for l := 0; l < lanes; l++ {
		copy(p.sendFree[l*nics:(l+1)*nics], n.sendFree)
		copy(p.recvFree[l*nics:(l+1)*nics], n.recvFree)
	}
	return p, nil
}

// NICs returns the number of NICs per lane.
func (p *Ports) NICs() int { return p.nics }

// Lanes returns the number of lanes.
func (p *Ports) Lanes() int { return p.lanes }

// SeedLane copies lane from's port state into lane to: lane to will replay
// the repetition that follows the one lane from just finished.
func (p *Ports) SeedLane(to, from int) {
	if to == from {
		return
	}
	copy(p.sendFree[to*p.nics:(to+1)*p.nics], p.sendFree[from*p.nics:(from+1)*p.nics])
	copy(p.recvFree[to*p.nics:(to+1)*p.nics], p.recvFree[from*p.nics:(from+1)*p.nics])
}

// Transmit replays one inter-NIC transfer on the given lane: lt carries
// the event's effective timing parameters (captured from TimingFor at
// plan-compile time), now is the sender's virtual time, and jitter is the
// (1+ε) factor drawn for this event (1 when the network is noise-free).
// It returns the send-completion and delivery times, bit-identical to
// Network.Transmit on the same inputs.
func (p *Ports) Transmit(lane, srcNIC, dstNIC int, lt LinkTiming, now, jitter float64) (sendComplete, delivered float64) {
	sf := p.sendFree[lane*p.nics:]
	rf := p.recvFree[lane*p.nics:]
	tx := lt.TxTime
	if tx > 0 {
		tx = tx * jitter
	}
	startTx := max(now+lt.SendOv, sf[srcNIC])
	sendComplete = startTx + tx
	sf[srcNIC] = sendComplete
	arrival := sendComplete + lt.Latency
	startRx := max(arrival, rf[dstNIC])
	drained := startRx + lt.RxTime
	rf[dstNIC] = drained
	delivered = drained + lt.RecvOv
	return sendComplete, delivered
}

// TransmitLocal replays a transfer between co-located processes (shared
// NIC): no port is occupied and no jitter is drawn. lt.TxTime is the
// precomputed bytes·IntraNodeByteTime and lt.Latency the intra-node
// latency.
func (p *Ports) TransmitLocal(lt LinkTiming, now float64) (sendComplete, delivered float64) {
	startTx := now + lt.SendOv
	sendComplete = startTx + lt.TxTime
	arrival := sendComplete + lt.Latency
	delivered = arrival + lt.RecvOv
	return sendComplete, delivered
}

// Noisy reports whether Transmit draws a jitter factor per transfer on
// this network (replay must consume the stream for exactly the transfers
// the scheduler would have).
func (n *Network) Noisy() bool { return n.rng != nil }

// DrawJitterInto fills dst with (1+ε) transmission-time factors drawn from
// the network's live noise stream under the configured jitter
// distribution, one per element, in order — the exact factors the next
// len(dst) noisy Transmit calls would have used (each noisy transfer
// consumes exactly one uniform draw regardless of distribution). On a
// noise-free network every factor is 1 and the (absent) stream is
// untouched.
func (n *Network) DrawJitterInto(dst []float64) {
	if n.rng == nil {
		for i := range dst {
			dst[i] = 1
		}
		return
	}
	if len(dst) > 0 {
		n.used = true
	}
	for i := range dst {
		dst[i] = n.jitterFactor()
	}
}
