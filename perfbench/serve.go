package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/serve"
	"soifft/internal/signal"
)

// mixItem is one kind of request in the serve-mix traffic.
type mixItem struct {
	n       int
	acc     soifft.Accuracy
	inverse bool
}

// mix is an open-loop traffic mix: Poisson arrivals at rate over conns
// client connections, each request one of items on one of inputs seeded
// inputs, chosen uniformly.
type mix struct {
	items  []mixItem
	rate   float64 // requests per second
	conns  int
	inputs int
}

// serveRate is about an eighth of the capacity of 2 workers and 2
// connections on the 2-CPU host the benchmark was sized on (about 470
// requests/s). Latency there is the per-request path — protocol, batch
// linger, queueing, plan lookup, the transform — with little waiting for
// a free connection; at half the capacity that waiting amplifies the
// host's run-to-run speed changes into 30-45% swings of p90 and p99.
const serveRate = 60

// requestTimeout bounds one request, so a stalled server fails the run's
// remaining requests instead of hanging it.
const requestTimeout = 10 * time.Second

// defaultMix is serve-mix: forward and inverse at n ∈ {4Ki, 16Ki}, at
// full accuracy and at the 200 dB rung (B=26).
func defaultMix() mix {
	m := mix{rate: serveRate, conns: 2, inputs: 4}
	for _, n := range []int{1 << 12, 1 << 14} {
		for _, acc := range []soifft.Accuracy{soifft.AccuracyFull, soifft.Accuracy200dB} {
			for _, inv := range []bool{false, true} {
				m.items = append(m.items, mixItem{n: n, acc: acc, inverse: inv})
			}
		}
	}
	return m
}

// service is one running server with its client connections.
type service struct {
	srv     *serve.Server
	served  chan error
	clients []*client.Client
}

// startService starts an in-process server on loopback, dials conns
// clients and warms every plan the mix uses, one request per plan.
func startService(m mix) (*service, error) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: 2, MaxLinger: 2 * time.Millisecond})
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	s := &service{srv: srv, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve() }()
	for i := 0; i < m.conns; i++ {
		c, err := client.DialTimeout(srv.Addr().String(), 5*time.Second)
		if err != nil {
			s.stop()
			return nil, err
		}
		c.SetRequestTimeout(requestTimeout)
		s.clients = append(s.clients, c)
	}
	for _, it := range m.items {
		if it.inverse {
			continue // the forward request builds the same plan
		}
		if _, err := s.clients[0].Transform(make([]complex128, it.n), options(it)); err != nil {
			s.stop()
			return nil, fmt.Errorf("warm n=%d %v: %w", it.n, it.acc, err)
		}
	}
	return s, nil
}

// stop closes the clients, drains the server and waits for it to exit.
func (s *service) stop() error {
	if s == nil {
		return nil
	}
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	return errors.Join(err, <-s.served)
}

func options(it mixItem) *client.Options {
	return &client.Options{Accuracy: it.acc, UseAccuracy: true}
}

// request is one scheduled arrival.
type request struct {
	due   time.Time
	item  int
	input int
	op    int64 // span op id, 0 when untraced
}

// runServe is serve-mix: an in-process serve.Server on loopback driven
// open loop by Poisson arrivals over 2 client connections, latency timed
// from each request's due time. Per-request overhead — protocol,
// batching, queueing, the plan cache — dominates; it is the only
// workload through serve, client and PlanCache.
func runServe(rc runConfig, fp fingerprint, m mix) (*report, error) {
	r := newReport(rc)
	var svc *service
	defer func() { svc.stop() }()
	var stopErr error
	setup, err := repeatSetup(func() {
		stopErr = errors.Join(stopErr, svc.stop())
		svc = nil
	}, func() (err error) {
		svc, err = startService(m)
		return err
	})
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	// References: a local plan with the options the server resolves gives
	// the bit-identical answer; each is checked once against the dense
	// transform.
	ins := make([][][]complex128, len(m.items))
	refs := make([][][]complex128, len(m.items))
	var snr []float64
	plans := map[soifft.PlanKey]*soifft.Plan{}
	for i, it := range m.items {
		opts := []soifft.Option{soifft.WithAccuracy(it.acc)}
		key := soifft.KeyOf(it.n, opts...)
		if plans[key] == nil {
			if plans[key], err = soifft.NewPlan(it.n, opts...); err != nil {
				return nil, err
			}
		}
		pl := plans[key]
		floor := floorFull
		if it.acc != soifft.AccuracyFull {
			floor = floor200dB
		}
		for k := 0; k < m.inputs; k++ {
			in := signal.Random(it.n, rc.seed*int64(len(m.items)*m.inputs)+int64(i*m.inputs+k))
			ref := make([]complex128, it.n)
			var dense []complex128
			if it.inverse {
				err = pl.Inverse(ref, in)
				if err == nil {
					dense, err = fft.Inverse(in)
				}
			} else {
				err = pl.Transform(ref, in)
				if err == nil {
					dense, err = fft.Forward(in)
				}
			}
			if err != nil {
				return nil, err
			}
			snr = append(snr, r.checkRef(rc, ref, dense, float64(floor), fmt.Sprintf("n=%d %v inverse=%v", it.n, it.acc, it.inverse)))
			ins[i] = append(ins[i], in)
			refs[i] = append(refs[i], ref)
		}
	}

	// The schedule: Poisson arrivals over the window, from the seed.
	settle()
	rng := rand.New(rand.NewSource(rc.seed))
	var reqs []request
	start := time.Now().Add(20 * time.Millisecond)
	for t := 0.0; ; {
		t += rng.ExpFloat64() / m.rate
		if t >= rc.dur.Seconds() {
			break
		}
		q := request{due: start.Add(time.Duration(t * float64(time.Second))),
			item: rng.Intn(len(m.items)), input: rng.Intn(m.inputs)}
		if rc.trace && len(reqs)%2 == 0 {
			q.op = rc.rec.newOp()
		}
		reqs = append(reqs, q)
	}

	before := serverCounters(svc.srv)
	queue := make(chan request, len(reqs)) // the whole schedule, so the generator never blocks
	for _, q := range reqs {
		queue <- q
	}
	close(queue)
	var (
		mu        sync.Mutex
		l         loopStats
		late, rtt []float64
	)
	a0, c0 := allocBytes(), cpuTime()
	var wg sync.WaitGroup
	for _, c := range svc.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for q := range queue {
				time.Sleep(time.Until(q.due))
				it := m.items[q.item]
				sent := time.Now()
				var s openSpan
				if q.op != 0 {
					s = rc.rec.begin("client.request", q.op, 0, 0)
				}
				var got []complex128
				var err error
				if it.inverse {
					got, err = c.Inverse(ins[q.item][q.input], options(it))
				} else {
					got, err = c.Transform(ins[q.item][q.input], options(it))
				}
				done := time.Now()
				s.end(int64(2 * 16 * it.n))
				ok := err == nil && bitEqual(got, refs[q.item][q.input])
				mu.Lock()
				l.attempted++
				late = append(late, msOf(sent.Sub(q.due)))
				lat := msOf(done.Sub(q.due))
				if q.op != 0 {
					l.tracedLat = append(l.tracedLat, lat)
					rtt = append(rtt, msOf(done.Sub(sent)))
				} else {
					l.lat = append(l.lat, lat)
				}
				if ok {
					l.points += int64(it.n)
				} else {
					l.failed++
				}
				l.wire += int64(2 * 16 * it.n)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	l.elapsed = time.Since(start)
	l.busy = l.elapsed
	l.cpu = cpuTime() - c0
	l.alloc = allocBytes() - a0
	after := serverCounters(svc.srv)
	r.setEndToEnd(setup, l, snr)
	if !rc.trace {
		return r, nil
	}

	d := after.minus(before)
	r.set("client.rtt_ms", median(rtt), "ms", len(rtt))
	var meanRTT float64
	for _, x := range rtt {
		meanRTT += x / float64(len(rtt))
	}
	r.set("client.protocol_ms", meanRTT-d.meanMs(d.totalUS, d.totalN), "ms", len(rtt))
	r.set("serve.queue_wait_ms", d.meanMs(d.queueUS, d.queueN), "ms", int(d.queueN))
	r.set("serve.batch_size_mean", float64(d.jobs)/float64(max(d.batches, 1)), "count", int(d.batches))
	r.set("serve.rejected", float64(d.rejected), "count", int(d.requests))
	hits, misses := d.hits, d.misses
	r.set("plancache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses))
	r.set("bench.gen_late_ms.p90", quantile(late, 0.9), "ms", len(late))

	// The kernels at the mix's largest full-accuracy shape.
	big := 0
	for _, it := range m.items {
		if it.acc == soifft.AccuracyFull && it.n > big {
			big = it.n
		}
	}
	pl := plans[soifft.KeyOf(big, soifft.WithAccuracy(soifft.AccuracyFull))]
	sh := shape{prm: core.Params{N: big, P: pl.Segments(), Mu: 5, Nu: 4, B: pl.Taps()}, ranks: 1}
	k, err := r.setKernelLayers(sh, signal.Random(big, rc.seed), fp)
	if err != nil {
		return nil, err
	}
	r.setResiduals(sh, k, 0, fp)
	return r, nil
}

// counters are the server's public counters at one instant.
type counters struct {
	requests, rejected, batches, jobs int64
	queueUS, queueN, totalUS, totalN  int64
	hits, misses                      uint64
}

func serverCounters(s *serve.Server) counters {
	snap := s.Metrics().Snapshot()
	lat, _ := snap["latency_log2"].(map[string]any)
	hist := func(name string) (sum, n int64) {
		h, _ := lat[name].(map[string]any)
		sum, _ = h["sum_us"].(int64)
		n, _ = h["count"].(int64)
		return sum, n
	}
	c := counters{
		requests: s.Metrics().Requests(),
		rejected: s.Metrics().Rejected(),
		batches:  s.Metrics().Batches(),
	}
	c.jobs, _ = snap["batched_jobs"].(int64)
	c.queueUS, c.queueN = hist("queue_wait")
	c.totalUS, c.totalN = hist("total")
	cs := s.Cache().Stats()
	c.hits, c.misses = cs.Hits, cs.Misses
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		requests: c.requests - b.requests, rejected: c.rejected - b.rejected,
		batches: c.batches - b.batches, jobs: c.jobs - b.jobs,
		queueUS: c.queueUS - b.queueUS, queueN: c.queueN - b.queueN,
		totalUS: c.totalUS - b.totalUS, totalN: c.totalN - b.totalN,
		hits: c.hits - b.hits, misses: c.misses - b.misses,
	}
}

func (c counters) meanMs(sumUS, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sumUS) / float64(n) / 1e3
}
