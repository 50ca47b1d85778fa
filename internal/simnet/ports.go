package simnet

import "fmt"

// This file holds the port bookkeeping and its one reservation, reserve:
// the scheduler (Network.Transmit) and the plan replay (Ports.Transmit on
// the network's own Ports) both claim ports there, so the two engines
// share one copy of the timing arithmetic.
//
// Ports built by NewPorts are snapshots with lane-major stripes (lane l's
// state for NIC i at [l*NICs() + i]), addressed through Transmit's lane
// argument. The network and the replay use lane 0 only; the stripes remain
// for the per-layer benchmark harness, which times Transmit across lanes.

// Ports is per-NIC port bookkeeping: for each lane and NIC, the virtual
// time its send port and its receive port become idle. Each transfer
// brings its link constants as a LinkTiming (from TimingFor, captured at
// plan-compile time on the replay side), so perturbed links and
// straggling nodes time exactly alike on both engines.
type Ports struct {
	nics     int
	sendFree []float64
	recvFree []float64
}

// Ports returns the network's own port state, which Transmit advances and
// Reset idles. Transfers replayed on it continue the network's run.
func (n *Network) Ports() *Ports { return &n.ports }

// NewPorts snapshots the network's current port state into every lane of a
// fresh Ports. lanes must be at least 1.
func (n *Network) NewPorts(lanes int) (*Ports, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("simnet: %d replay lanes, need >= 1", lanes)
	}
	p := &Ports{nics: n.ports.nics}
	for range lanes {
		p.sendFree = append(p.sendFree, n.ports.sendFree...)
		p.recvFree = append(p.recvFree, n.ports.recvFree...)
	}
	return p, nil
}

// NICs returns the number of NICs per lane.
func (p *Ports) NICs() int { return p.nics }

// Transmit replays one transfer on the given lane: lt carries the
// transfer's effective timing parameters (captured from TimingFor at
// plan-compile time), now is the sender's virtual time, and jitter is the
// (1+ε) factor drawn for it (1 when the network is noise-free or the
// transfer is local). It returns the send-completion and delivery times,
// bit-identical to Network.Transmit on the same inputs.
func (p *Ports) Transmit(lane, srcNIC, dstNIC int, lt LinkTiming, now, jitter float64) (sendComplete, delivered float64) {
	_, sendComplete, _, delivered = p.reserve(lane*p.nics, srcNIC, dstNIC, lt, now, jitter, 1)
	return sendComplete, delivered
}

// grant returns when the send port at index i (lane offset plus NIC)
// grants a transfer ready to start at ready.
func (p *Ports) grant(i int, ready float64) float64 { return max(ready, p.sendFree[i]) }

// reserve times one transfer issued at sender time now and claims its
// ports: the send port of srcNIC, then the receive port of dstNIC, in the
// lane whose stripes start at off. The sender-port occupancy is
// lt.TxTime·jitter·brown, where brown is the brownout factor at the send
// port's grant time (1 outside a brownout, and x·1 == x). A Local transfer
// (co-located processes) touches no port and takes no factor.
func (p *Ports) reserve(off, srcNIC, dstNIC int, lt LinkTiming, now, jitter, brown float64) (startTx, sendComplete, arrival, delivered float64) {
	if lt.Local {
		startTx = now + lt.SendOv
		sendComplete = startTx + lt.TxTime
		arrival = sendComplete + lt.Latency
		return startTx, sendComplete, arrival, arrival + lt.RecvOv
	}
	s, d := off+srcNIC, off+dstNIC
	startTx = p.grant(s, now+lt.SendOv)
	sendComplete = startTx + lt.TxTime*jitter*brown
	p.sendFree[s] = sendComplete
	arrival = sendComplete + lt.Latency
	drained := max(arrival, p.recvFree[d]) + lt.RxTime
	p.recvFree[d] = drained
	return startTx, sendComplete, arrival, drained + lt.RecvOv
}
