package runtime

import (
	"fmt"
	"time"

	"repro/internal/demand"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/transport"
)

// NewTCP assembles a cluster whose replicas talk over real TCP sockets on
// the loopback (or any) interface: one listener per replica, peers wired
// according to the graph's edges. It exercises the full wire codec and
// framing path end to end.
//
// The caller still drives the cluster through the normal Start/Stop/Write
// API. Addresses are chosen by the kernel (port 0) on addrHost, e.g.
// "127.0.0.1".
func NewTCP(g *topology.Graph, field demand.Field, addrHost string, opts ...Option) (*Cluster, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	c := &Cluster{
		opts:     o,
		graph:    g,
		field:    field,
		absorbed: store.New(),
		// net stays nil for TCP clusters; Stop closes endpoints directly.
	}
	var topts []transport.TCPOption
	if co := o.obs; co != nil {
		c.goodput = newDemandMeter(time.Second)
		// Stalled sends feed the stall-duration histogram whether the
		// envelope squeezed in late or was dropped: the wait itself is the
		// backpressure signal a saturated peer emits.
		stallSeconds := co.Reg.Histogram("repro_tcp_send_stall_seconds",
			"Time sends spent blocked on a full TCP peer queue before enqueueing late or dropping.",
			obs.LatencyBuckets, co.Labels...)
		topts = append(topts, transport.WithStallObserver(func(wait time.Duration, dropped bool) {
			stallSeconds.Observe(wait.Seconds())
		}))
	}
	endpoints := make([]*transport.TCP, g.N())
	for i := 0; i < g.N(); i++ {
		ep, err := transport.ListenTCP(NodeID(i), addrHost+":0", topts...)
		if err != nil {
			for _, prev := range endpoints[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("runtime: replica %d: %w", i, err)
		}
		endpoints[i] = ep
	}
	// Wire peers along graph edges (both directions).
	for i := 0; i < g.N(); i++ {
		for _, nb := range g.Neighbors(NodeID(i)) {
			endpoints[i].AddPeer(nb, endpoints[nb].Addr())
		}
	}
	for i := 0; i < g.N(); i++ {
		c.addReplica(NodeID(i), endpoints[i])
	}
	if c.initErr != nil {
		for _, ep := range endpoints {
			ep.Close()
		}
		return nil, c.initErr
	}
	c.registerObs()
	return c, nil
}
