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
// Replay reads its jitter from the network's noise stream through Jitter:
// each repetition takes the next Plan.Draws() factors as a view of the
// memo, in the order the scheduler would have consumed them, and walks
// one port state that carries over from repetition to repetition.
//
// Ports built by NewPorts still have lane-major stripes (lane l's state for
// NIC i at [l*NICs() + i]), addressed through Transmit's lane argument.
// The replay uses lane 0 only; the stripes remain for the per-layer
// benchmark harness, which times Transmit across lanes.

// Ports is per-NIC port-free bookkeeping for timing replay. The
// per-transfer link constants travel with each replayed event as a
// LinkTiming (captured from TimingFor at plan-compile time), so perturbed
// links and straggling nodes replay with exactly the parameters the
// scheduler used.
type Ports struct {
	nics int
	// SendFree and RecvFree hold, per lane and NIC, the virtual time the
	// port becomes idle.
	sendFree []float64
	recvFree []float64
}

// NewPorts snapshots the network's current port state into every lane of a
// fresh Ports. lanes must be at least 1.
func (n *Network) NewPorts(lanes int) (*Ports, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("simnet: %d replay lanes, need >= 1", lanes)
	}
	p := &Ports{nics: n.cfg.NICs()}
	for range lanes {
		p.sendFree = append(p.sendFree, n.sendFree...)
		p.recvFree = append(p.recvFree, n.recvFree...)
	}
	return p, nil
}

// SnapshotPortsInto re-snapshots the network's current port state into a
// single-lane p, reusing p's backing stripes when they are large enough
// (a recycled Ports stops allocating once it has seen the widest
// network). A nil p builds a fresh Ports.
func (n *Network) SnapshotPortsInto(p *Ports) *Ports {
	if p == nil {
		p = &Ports{}
	}
	p.nics = n.cfg.NICs()
	p.sendFree = append(p.sendFree[:0], n.sendFree...)
	p.recvFree = append(p.recvFree[:0], n.recvFree...)
	return p
}

// NICs returns the number of NICs per lane.
func (p *Ports) NICs() int { return p.nics }

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
