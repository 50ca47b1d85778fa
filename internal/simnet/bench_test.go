package simnet

import (
	"testing"

	"mpicollperf/internal/perturb"
)

// benchNetwork returns a quiet or a perturbed 16-node noisy network: the
// perturbed one has a straggler, a degraded link and a brownout, so its
// Transmit takes the perturbed timing tables and peeks the send-port grant
// time for the brownout factor.
func benchNetwork(b *testing.B, perturbed bool) *Network {
	cfg := testConfig()
	cfg.Nodes = 16
	cfg.NoiseAmplitude = 0.02
	cfg.NoiseSeed = 3
	if perturbed {
		cfg.Perturb = &perturb.Spec{
			Stragglers: []perturb.Straggler{{Node: 3, Compute: 1.5, NIC: 2}},
			Links:      []perturb.LinkRule{{Src: 1, Dst: 8, Latency: 2, Bandwidth: 3}},
			Brownouts:  []perturb.Brownout{{Src: 0, Dst: 1, Start: 1e-3, End: 2e-3, Bandwidth: 4}},
		}
	}
	net, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// benchPairs is the transfer pattern both benchmarks cycle through: every
// sender in turn, to a destination that walks the other nodes.
func benchPairs(nodes int) [][2]int {
	var pairs [][2]int
	for i := 0; i < 4*nodes; i++ {
		src, dst := i%nodes, (i*7+1)%nodes
		if src == dst {
			dst = (dst + 1) % nodes
		}
		pairs = append(pairs, [2]int{src, dst})
	}
	return pairs
}

// benchSink keeps the benchmarks' results live.
var benchSink float64

// benchResetEvery bounds a run's virtual time and the jitter memo: the
// network is Reset (ports idle, stream rewound) every that many transfers.
const benchResetEvery = 4096

// BenchmarkNetworkTransmit times the scheduler's transfer primitive: the
// argument checks, TimingFor, the jitter draw and the port reservation.
func BenchmarkNetworkTransmit(b *testing.B) {
	for _, name := range []string{"quiet", "perturbed"} {
		b.Run(name, func(b *testing.B) {
			net := benchNetwork(b, name == "perturbed")
			pairs := benchPairs(net.Nodes())
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%benchResetEvery == 0 {
					net.Reset()
					now = 0
				}
				pr := pairs[i%len(pairs)]
				tr, err := net.Transmit(pr[0], pr[1], 8192, now)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = tr.Delivered
				now += 1e-6
			}
		})
	}
}

// BenchmarkPortsTransmit times the replay's transfer primitive: the
// reservation alone, with each transfer's LinkTiming captured up front as
// a compiled plan holds it.
func BenchmarkPortsTransmit(b *testing.B) {
	for _, name := range []string{"quiet", "perturbed"} {
		b.Run(name, func(b *testing.B) {
			net := benchNetwork(b, name == "perturbed")
			cfg := net.Config()
			type send struct {
				src, dst int
				lt       LinkTiming
			}
			var sends []send
			for _, pr := range benchPairs(net.Nodes()) {
				sends = append(sends, send{cfg.NIC(pr[0]), cfg.NIC(pr[1]), net.TimingFor(pr[0], pr[1], 8192)})
			}
			ports, err := net.NewPorts(1)
			if err != nil {
				b.Fatal(err)
			}
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := &sends[i%len(sends)]
				_, benchSink = ports.Transmit(0, s.src, s.dst, s.lt, now, 1.01)
				now += 1e-6
			}
		})
	}
}
