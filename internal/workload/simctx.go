package workload

import (
	"math/rand/v2"
	"sync"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/netsim"
	"tamperdetect/internal/tcpsim"
)

// simCtx is everything one connection's simulation needs that does not
// depend on the connection: the event engine, both endpoints (with
// their parsers and packet arenas), the path between them, the capture
// sampler and the two random sources. SimulateConn draws one from
// simPool, re-seeds and Resets every part — each Reset leaves its part
// exactly as its constructor would, which TestSimContextReuse pins
// against fresh contexts — and puts it back, so a worker simulating
// connection after connection keeps reusing one context and allocates
// little beyond the record it returns. Nothing in it grows with the
// run: the arenas are fixed-size, the queues and tables are bounded by
// one connection's traffic.
type simCtx struct {
	pcg, shufflePCG rand.PCG
	rng, shuffle    *rand.Rand

	sim     *netsim.Sim
	now     func() netsim.Time // sim.Now, bound once
	cli     *tcpsim.Client
	srv     *tcpsim.Server
	path    *netsim.Path
	sampler *capture.Sampler

	// Backing storage for the PathConfig of the current connection.
	segs [2]netsim.Segment
	mbs  [1]netsim.Middlebox
}

var simPool = sync.Pool{New: func() any { return newSimCtx() }}

func newSimCtx() *simCtx {
	x := &simCtx{sim: netsim.NewSim(0), sampler: capture.NewSampler(capture.Config{})}
	x.rng, x.shuffle = rand.New(&x.pcg), rand.New(&x.shufflePCG)
	x.now = x.sim.Now
	x.cli = tcpsim.NewClient(x.sim, tcpsim.ClientConfig{}, x.rng)
	x.srv = tcpsim.NewServer(x.sim, tcpsim.ServerConfig{}, x.rng)
	x.path = netsim.NewPath(x.sim, netsim.PathConfig{Segments: x.segs[:1]}, x.cli, x.srv)
	x.path.Tap = x.sampler.Inbound
	x.cli.Attach(x.path.SendFromClient)
	x.srv.Attach(x.path.SendFromServer)
	return x
}

// begin starts a new connection on the context: it drops whatever the
// previous one left in the engine and returns the connection's random
// stream, seeded from the spec as it always was.
func (x *simCtx) begin(spec *ConnSpec) *rand.Rand {
	x.sim.Reset(spec.Start)
	x.pcg.Seed(spec.Seed, spec.Seed^0xabcdef)
	return x.rng
}

// segments draws the path's per-segment delay and hop count for a
// chain of n middleboxes.
func (x *simCtx) segments(n int) []netsim.Segment {
	segs := x.segs[:n+1]
	for i := range segs {
		segs[i] = netsim.Segment{
			Delay: time.Duration(5+x.rng.IntN(40)) * time.Millisecond,
			Hops:  uint8(3 + x.rng.IntN(7)),
		}
	}
	return segs
}

// run plays the connection out — the endpoints must have been Reset
// after begin — and returns its capture record, nil if the sampler did
// not select it. The record shares nothing with the context.
func (x *simCtx) run(spec *ConnSpec, pathCfg netsim.PathConfig, capCfg capture.Config) *capture.Connection {
	if capCfg.ShuffleWithinSecond == nil {
		x.shufflePCG.Seed(spec.Seed^0x5417, spec.Seed)
		capCfg.ShuffleWithinSecond = x.shuffle
	}
	x.path.Reset(pathCfg)
	x.sampler.Reset(capCfg)
	x.cli.Start()
	x.sim.Run(500000)
	conns := x.sampler.Drain(x.sim.Now().Add(45 * time.Second))
	if len(conns) == 0 {
		return nil
	}
	return conns[0]
}
