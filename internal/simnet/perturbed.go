package simnet

// This file composes a perturb.Spec onto the cluster: at construction the
// spec is expanded into dense per-NIC and per-link tables of *effective*
// timing parameters, so the transfer hot path pays one indexed load per
// parameter instead of rule matching. A nil pertState (the unperturbed
// platform) keeps Transmit on the exact arithmetic the simulator has
// always used — perturbation support is bit-invisible until a spec is
// configured.

import "mpicollperf/internal/perturb"

// LinkTiming is the complete set of effective timing parameters of one
// transfer: the per-transfer port occupancies (bytes times the effective
// per-byte times), the wire latency, and the endpoint CPU overheads —
// after any time-invariant perturbations (stragglers, link degradation)
// have been applied. It is the unit the plan-replay engine stores per
// compiled transfer, so scheduler and replay cannot disagree about what a
// perturbation did to a link.
type LinkTiming struct {
	// Local marks a transfer between co-located processes (shared NIC):
	// no port is occupied, no jitter is drawn, and Latency/TxTime hold the
	// intra-node parameters (RxTime is zero).
	Local bool
	// TxTime is the sender-port occupancy of the transfer (or the full
	// copy time when Local).
	TxTime float64
	// RxTime is the receiver-port occupancy of the transfer.
	RxTime float64
	// Latency is the effective wire latency of the link.
	Latency float64
	// SendOv and RecvOv are the effective CPU overheads of the sending and
	// receiving process.
	SendOv, RecvOv float64
}

// pertState is a perturbation spec expanded against a concrete cluster.
type pertState struct {
	nics int
	spec *perturb.Spec
	// Per-link effective parameters, indexed srcNIC*nics + dstNIC.
	lat  []float64
	txBT []float64
	rxBT []float64
	// Per-NIC effective CPU overheads.
	sendOv []float64
	recvOv []float64
	// brown holds the time-windowed brownouts per link (same index).
	brown map[int][]perturb.Brownout
	// jitter distribution of the (1+ε) transmission factor.
	jitter perturb.JitterDist
	alpha  float64
}

// newPertState expands cfg.Perturb, or returns nil for the unperturbed
// platform. cfg must already be validated.
func newPertState(cfg Config) *pertState {
	spec := cfg.Perturb
	if spec.Empty() {
		return nil
	}
	nics := cfg.NICs()
	p := &pertState{
		nics:   nics,
		spec:   spec,
		lat:    make([]float64, nics*nics),
		txBT:   make([]float64, nics*nics),
		rxBT:   make([]float64, nics*nics),
		sendOv: make([]float64, nics),
		recvOv: make([]float64, nics),
		jitter: spec.Jitter,
		alpha:  spec.ParetoAlpha,
	}
	if p.alpha == 0 {
		p.alpha = 2
	}
	cpuF := make([]float64, nics)
	nicF := make([]float64, nics)
	for i := range cpuF {
		cpuF[i], nicF[i] = 1, 1
	}
	// Multiple straggler entries on one node compose multiplicatively.
	for _, s := range spec.Stragglers {
		if s.Compute > 0 {
			cpuF[s.Node] *= s.Compute
		}
		if s.NIC > 0 {
			nicF[s.Node] *= s.NIC
		}
	}
	for i := 0; i < nics; i++ {
		p.sendOv[i] = cfg.SendOverhead * cpuF[i]
		p.recvOv[i] = cfg.RecvOverhead * cpuF[i]
	}
	for s := 0; s < nics; s++ {
		for d := 0; d < nics; d++ {
			l := s*nics + d
			p.lat[l] = cfg.Latency
			p.txBT[l] = cfg.ByteTimeSend * nicF[s]
			p.rxBT[l] = cfg.ByteTimeRecv * nicF[d]
		}
	}
	for _, r := range spec.Links {
		l := r.Src*nics + r.Dst
		if r.Latency > 0 {
			p.lat[l] *= r.Latency
		}
		if r.Bandwidth > 0 {
			p.txBT[l] *= r.Bandwidth
			p.rxBT[l] *= r.Bandwidth
		}
	}
	if len(spec.Brownouts) > 0 {
		p.brown = make(map[int][]perturb.Brownout)
		for _, b := range spec.Brownouts {
			l := b.Src*nics + b.Dst
			p.brown[l] = append(p.brown[l], b)
		}
	}
	return p
}

// brownFactor returns the combined bandwidth collapse factor of the
// brownouts active on link src->dst at virtual time t (1 when none).
func (p *pertState) brownFactor(srcNIC, dstNIC int, t float64) float64 {
	f := 1.0
	for _, b := range p.brown[srcNIC*p.nics+dstNIC] {
		if t >= b.Start && t < b.End {
			f *= b.Bandwidth
		}
	}
	return f
}

// TimingFor returns the effective timing parameters of a transfer of
// bytes from process src to process dst, with every time-invariant
// perturbation applied (brownouts, being time-windowed, are applied
// inside Transmit only). On an unperturbed network it returns exactly the
// Config's parameters.
func (n *Network) TimingFor(src, dst, bytes int) LinkTiming {
	srcNIC, dstNIC := n.cfg.nic(src), n.cfg.nic(dst)
	if srcNIC == dstNIC {
		lt := LinkTiming{
			Local:   true,
			TxTime:  float64(bytes) * n.cfg.IntraNodeByteTime,
			Latency: n.cfg.IntraNodeLatency,
			SendOv:  n.cfg.SendOverhead,
			RecvOv:  n.cfg.RecvOverhead,
		}
		if n.pert != nil {
			// Co-located transfers bypass the NIC, but the endpoint CPU
			// overheads still run on a (possibly straggling) node.
			lt.SendOv = n.pert.sendOv[srcNIC]
			lt.RecvOv = n.pert.recvOv[dstNIC]
		}
		return lt
	}
	if n.pert == nil {
		return LinkTiming{
			TxTime:  float64(bytes) * n.cfg.ByteTimeSend,
			RxTime:  float64(bytes) * n.cfg.ByteTimeRecv,
			Latency: n.cfg.Latency,
			SendOv:  n.cfg.SendOverhead,
			RecvOv:  n.cfg.RecvOverhead,
		}
	}
	l := srcNIC*n.pert.nics + dstNIC
	return LinkTiming{
		TxTime:  float64(bytes) * n.pert.txBT[l],
		RxTime:  float64(bytes) * n.pert.rxBT[l],
		Latency: n.pert.lat[l],
		SendOv:  n.pert.sendOv[srcNIC],
		RecvOv:  n.pert.recvOv[dstNIC],
	}
}

// SendOverheadOf returns the effective send overhead of a process — the
// Config's SendOverhead scaled by any compute straggler on the process's
// node. The mpi scheduler charges it to a rank's clock after a
// non-blocking send.
func (n *Network) SendOverheadOf(proc int) float64 {
	if n.pert == nil {
		return n.cfg.SendOverhead
	}
	return n.pert.sendOv[n.cfg.nic(proc)]
}

// ReplayInvariant reports whether the network's effective timing
// parameters are independent of virtual time. Time-windowed perturbations
// (brownouts) make them time-varying, and a compiled plan cannot be
// re-timed under them: the measurement harness must stay on the scheduler
// engine and reports the fallback.
func (n *Network) ReplayInvariant() bool {
	return n.pert == nil || n.pert.spec.TimeInvariant()
}

// draw produces the next factor of the seeded stream under the configured
// jitter distribution (1 on a noise-free network).
func (n *Network) draw() float64 {
	if n.gen == nil {
		return 1
	}
	u := n.gen.Float64()
	if n.pert == nil {
		return 1 + n.cfg.NoiseAmplitude*u
	}
	return n.pert.jitter.Factor(n.cfg.NoiseAmplitude, n.pert.alpha, u)
}
