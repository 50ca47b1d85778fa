// Package simnet implements a deterministic discrete-event model of a
// switched, homogeneous compute cluster. It is the hardware substrate of
// the reproduction: the paper measures Open MPI broadcast algorithms on the
// Grid'5000 Grisou and Gros clusters, and this package plays the role of
// those clusters.
//
// The model is deliberately first-order but captures exactly the phenomena
// the paper's implementation-derived models exploit:
//
//   - each node has one NIC send port and one NIC receive port, and every
//     port serialises the transfers that cross it (a transfer of m bytes
//     occupies a port for m·G seconds). Serialisation at the sender port is
//     what makes a non-blocking linear broadcast to P-1 children slower
//     than a single point-to-point transfer — the paper's γ(P) parameter;
//   - send and receive ports are independent, so an interior node of a
//     chain or tree can receive segment i+1 while forwarding segment i —
//     the pipelining that makes segmented algorithms win for large
//     messages;
//   - a fixed wire latency L and per-byte time G give the α/β structure of
//     the Hockney model that all the analytical formulas are built on.
//
// Timing of one transfer of m bytes from s to d issued at sender time t:
//
//	startTx   = max(t + SendOverhead, sendPortFree[s])
//	txTime    = m·ByteTimeSend·(1+ε)         (ε optional seeded noise)
//	arrival   = startTx + txTime + Latency
//	startRx   = max(arrival, recvPortFree[d])
//	delivered = startRx + m·ByteTimeRecv + RecvOverhead
//
// The caller (the mpi runtime) must initiate transfers in non-decreasing
// virtual-time order; under that contract, and with homogeneous latency,
// the greedy port bookkeeping above is globally consistent.
package simnet

import (
	"fmt"
	"math/rand"

	"mpicollperf/internal/perturb"
)

// Config describes a homogeneous cluster.
type Config struct {
	// Nodes is the number of process endpoints (one process per node in
	// all of the paper's experiments). When ProcsPerNode > 1 it still
	// counts process endpoints, not physical nodes: consecutive groups of
	// ProcsPerNode endpoints share one physical node and NIC, so the
	// cluster has NICs() = ceil(Nodes/ProcsPerNode) physical nodes.
	Nodes int
	// Latency is the end-to-end wire latency L in seconds.
	Latency float64
	// ByteTimeSend is the per-byte occupancy G of a sender NIC port, in
	// seconds per byte (the reciprocal of the injection bandwidth).
	ByteTimeSend float64
	// ByteTimeRecv is the per-byte occupancy of a receiver NIC port, in
	// seconds per byte (the reciprocal of the drain bandwidth).
	ByteTimeRecv float64
	// SendOverhead is the CPU time o_s a process spends initiating a send.
	SendOverhead float64
	// RecvOverhead is the CPU time o_r a process spends completing a receive.
	RecvOverhead float64
	// NoiseAmplitude, if positive, multiplies every transmission time by
	// (1+ε) with ε drawn uniformly from [0, NoiseAmplitude] using NoiseSeed.
	// This models OS and switch jitter and is what makes repeated
	// measurements vary, exercising the paper's statistical methodology.
	NoiseAmplitude float64
	// NoiseSeed seeds the jitter generator. Two networks with identical
	// configs produce identical event histories.
	NoiseSeed int64
	// ProcsPerNode co-locates that many consecutive process endpoints on
	// one physical node sharing a NIC (the paper's Grisou runs one process
	// per CPU, two CPUs per node). Zero or one means one process per
	// node. Transfers between co-located processes bypass the NIC and use
	// the intra-node parameters below; shared-memory bandwidth contention
	// is not modelled.
	ProcsPerNode int
	// IntraNodeLatency and IntraNodeByteTime parameterise transfers
	// between processes on the same node; both must be set (positive
	// latency) when ProcsPerNode > 1.
	IntraNodeLatency  float64
	IntraNodeByteTime float64
	// Perturb composes a fault/perturbation scenario onto the cluster:
	// per-node stragglers, degraded links, transient brownouts, and
	// heavy-tailed jitter (package perturb). Nil (or an empty spec) is the
	// unperturbed platform, whose timings are bit-identical to a
	// perturbation-free build of this package. Perturbations are part of
	// the platform identity: the spec serialises with the Config, so
	// measurement-cache keys distinguish perturbed runs.
	Perturb *perturb.Spec `json:",omitempty"`
}

// procsPerNode returns the effective co-location factor.
func (c *Config) procsPerNode() int {
	if c.ProcsPerNode < 1 {
		return 1
	}
	return c.ProcsPerNode
}

// nic returns the physical node (NIC index) of a process endpoint.
func (c *Config) nic(proc int) int { return proc / c.procsPerNode() }

// NIC returns the physical node (NIC index) of a process endpoint.
func (c *Config) NIC(proc int) int { return c.nic(proc) }

// NICs returns the number of physical nodes, each with one send and one
// receive port: ceil(Nodes/ProcsPerNode).
func (c Config) NICs() int {
	ppn := c.procsPerNode()
	return (c.Nodes + ppn - 1) / ppn
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("simnet: Nodes = %d, need >= 1", c.Nodes)
	case c.Latency < 0, c.ByteTimeSend < 0, c.ByteTimeRecv < 0:
		return fmt.Errorf("simnet: negative link parameters")
	case c.SendOverhead < 0, c.RecvOverhead < 0:
		return fmt.Errorf("simnet: negative overheads")
	case c.NoiseAmplitude < 0:
		return fmt.Errorf("simnet: negative noise amplitude")
	}
	if c.ProcsPerNode > 1 {
		if c.IntraNodeLatency <= 0 || c.IntraNodeByteTime < 0 {
			return fmt.Errorf("simnet: ProcsPerNode %d needs positive IntraNodeLatency and non-negative IntraNodeByteTime", c.ProcsPerNode)
		}
	}
	if err := c.Perturb.Validate(c.NICs()); err != nil {
		return err
	}
	return nil
}

// Transfer records the complete timing of one message transmission.
type Transfer struct {
	Src, Dst int
	Bytes    int
	// Issued is the sender-side virtual time the transfer was initiated.
	Issued float64
	// StartTx is when the first byte enters the sender port.
	StartTx float64
	// SendComplete is when the last byte has left the sender port; a
	// non-blocking send's buffer is reusable from this moment.
	SendComplete float64
	// Arrival is when the last byte reaches the receiver port.
	Arrival float64
	// Delivered is when the message is fully available to the receiving
	// process (after receive-port drain and CPU overhead).
	Delivered float64
}

// Network is the live simulator state: per-node port bookkeeping plus the
// jitter stream. It is not safe for concurrent use; the mpi scheduler is
// single-threaded by design.
type Network struct {
	cfg      Config
	sendFree []float64
	recvFree []float64
	// memo holds every (1+ε) factor the noise stream has produced so far,
	// in stream order, and cur is the position of the next factor to read.
	// gen, the seeded generator, always sits at the memo's end: factors
	// are drawn from it only when a reader passes the end, so every point
	// after the first on a network re-reads its prefix instead of
	// reseeding and recomputing it. gen is nil on a noise-free network.
	memo  []float64
	cur   int
	gen   *rand.Rand
	nTx   int64
	trace func(Transfer)
	// pert holds the expanded perturbation tables; nil on an unperturbed
	// network, which keeps the hot path on the exact legacy arithmetic.
	pert *pertState
}

// New builds a network from cfg.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Ports exist per NIC, not per process endpoint: with co-location
	// (ProcsPerNode > 1) only ceil(Nodes/ProcsPerNode) NICs are ever
	// indexed.
	n := &Network{
		cfg:      cfg,
		sendFree: make([]float64, cfg.NICs()),
		recvFree: make([]float64, cfg.NICs()),
	}
	if cfg.NoiseAmplitude > 0 {
		n.gen = rand.New(rand.NewSource(cfg.NoiseSeed))
	}
	n.pert = newPertState(cfg)
	return n, nil
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Transfers returns the number of transfers simulated so far.
func (n *Network) Transfers() int64 { return n.nTx }

// SetTrace installs a hook invoked for every completed Transmit call.
// Pass nil to disable tracing.
func (n *Network) SetTrace(fn func(Transfer)) { n.trace = fn }

// Transmit simulates moving bytes from src to dst, with the send initiated
// at sender virtual time now. It updates the port bookkeeping and returns
// the full timing. src and dst must be distinct valid nodes.
//
// Callers must invoke Transmit in non-decreasing order of now across the
// whole network (the mpi scheduler guarantees this).
func (n *Network) Transmit(src, dst, bytes int, now float64) (Transfer, error) {
	if src < 0 || src >= n.cfg.Nodes || dst < 0 || dst >= n.cfg.Nodes {
		return Transfer{}, fmt.Errorf("simnet: transfer %d->%d outside 0..%d", src, dst, n.cfg.Nodes-1)
	}
	if src == dst {
		return Transfer{}, fmt.Errorf("simnet: self-transfer on node %d", src)
	}
	if bytes < 0 {
		return Transfer{}, fmt.Errorf("simnet: negative size %d", bytes)
	}
	t := Transfer{Src: src, Dst: dst, Bytes: bytes, Issued: now}
	srcNIC, dstNIC := n.cfg.nic(src), n.cfg.nic(dst)
	lt := n.TimingFor(src, dst, bytes)
	if lt.Local {
		// Co-located processes: shared-memory transfer, no NIC involved.
		t.StartTx = now + lt.SendOv
		t.SendComplete = t.StartTx + lt.TxTime
		t.Arrival = t.SendComplete + lt.Latency
		t.Delivered = t.Arrival + lt.RecvOv
		n.nTx++
		if n.trace != nil {
			n.trace(t)
		}
		return t, nil
	}
	txTime := lt.TxTime
	if n.gen != nil && txTime > 0 {
		txTime *= n.Jitter(1)[0]
	}
	t.StartTx = max(now+lt.SendOv, n.sendFree[srcNIC])
	if n.pert != nil && n.pert.brown != nil {
		// Brownout membership is decided by the (jitter-free) port grant
		// time, so it is deterministic for a given seed and spec.
		if f := n.pert.brownFactor(srcNIC, dstNIC, t.StartTx); f != 1 {
			txTime *= f
		}
	}
	t.SendComplete = t.StartTx + txTime
	n.sendFree[srcNIC] = t.SendComplete
	t.Arrival = t.SendComplete + lt.Latency
	startRx := max(t.Arrival, n.recvFree[dstNIC])
	drained := startRx + lt.RxTime
	n.recvFree[dstNIC] = drained
	t.Delivered = drained + lt.RecvOv
	n.nTx++
	if n.trace != nil {
		n.trace(t)
	}
	return t, nil
}

// PointToPointTime returns the noise-free duration of a single isolated
// m-byte transfer on an idle network: the Hockney T_p2p(m) = α + β·m of
// this substrate, with α = SendOverhead + Latency + RecvOverhead and
// β = ByteTimeSend + ByteTimeRecv. Useful as ground truth in tests.
func (c Config) PointToPointTime(bytes int) float64 {
	return c.SendOverhead + c.Latency + c.RecvOverhead +
		float64(bytes)*(c.ByteTimeSend+c.ByteTimeRecv)
}

// Reset returns all ports to idle at time zero and rewinds the jitter
// stream, so that consecutive experiments on the same Network are
// independent and reproducible. Rewinding moves the memo's cursor back to
// the first factor: nothing is reseeded or redrawn, and Reset allocates
// nothing.
func (n *Network) Reset() {
	clear(n.sendFree)
	clear(n.recvFree)
	n.cur = 0
	n.nTx = 0
}

// Jitter returns the next k (1+ε) transmission-time factors of the noise
// stream and advances past them: exactly the factors the next k noisy
// Transmit calls would use (each consumes one, whatever the jitter
// distribution). The slice is a read-only view of the network's memo;
// factors past the memo's end are drawn into it first. On a noise-free
// network every factor is 1.
func (n *Network) Jitter(k int) []float64 {
	end := n.cur + k
	if end > cap(n.memo) {
		// Double, where append would grow a large slice by a quarter:
		// the memo reaches a calibration's largest point in a few copies.
		n.memo = append(make([]float64, 0, max(end, 2*cap(n.memo))), n.memo...)
	}
	for len(n.memo) < end {
		n.memo = append(n.memo, n.draw())
	}
	f := n.memo[n.cur:end:end]
	n.cur = end
	return f
}
