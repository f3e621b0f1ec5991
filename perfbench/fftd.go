package main

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"net"
	"net/http"
	"time"

	"spiralfft"
	"spiralfft/client"
	"spiralfft/internal/server"
)

// fftdBench drives an in-process fftd server over loopback HTTP from
// closed-loop clients: each sends its next request when the last returns.
type fftdBench struct {
	m       mix
	cfg     server.Config
	clients int
	seed    int64
	flops   []float64
	inC     [][][]complex128 // [kind][variant] complex payloads (dft, batch)
	inF     [][][]float64    // [kind][variant] float payloads (real)
	want    [][][]complex128 // [kind][variant] in-process library results
	failed  []int64          // per kind

	cache  *spiralfft.Cache
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	tr     *http.Transport
	cl     *client.Client
}

func newFFTDBench(m mix, cfg server.Config, clients int, seed int64) *fftdBench {
	b := &fftdBench{m: m, cfg: cfg, clients: clients, seed: seed, failed: make([]int64, len(m))}
	for k := range m {
		kd := &m[k]
		b.flops = append(b.flops, kd.flops())
		var cs [][]complex128
		var fs [][]float64
		for v := 0; v < variants; v++ {
			x := signal(seed, kd.points(), v)
			if kd.family == "real" {
				f := make([]float64, kd.n)
				for i := range f {
					f[i] = real(x[i])
				}
				fs = append(fs, f)
				x = nil
			}
			cs = append(cs, x)
		}
		b.inC = append(b.inC, cs)
		b.inF = append(b.inF, fs)
	}
	return b
}

func (kd *opKind) job() client.Job {
	return client.Job{Family: client.Family(kd.family), N: kd.n, Count: kd.count, Inverse: kd.inv}
}

// outLen is the op's output length in complex values.
func (kd *opKind) outLen() int {
	if kd.family == "real" {
		return kd.n/2 + 1
	}
	return kd.points()
}

// buffers are one client's response buffers, sized for the largest kind.
type buffers struct {
	c []complex128
	f []float64
}

func (b *fftdBench) newBuffers() *buffers {
	n := 0
	for k := range b.m {
		n = max(n, b.m[k].outLen())
	}
	return &buffers{c: make([]complex128, n), f: make([]float64, 2*n)}
}

// call sends one request through cl and leaves the response in buf.
func (b *fftdBench) call(ctx context.Context, cl *client.Client, o op, buf *buffers) error {
	kd := &b.m[o.kind]
	if kd.family == "real" {
		return cl.Do(ctx, kd.job(), buf.f[:2*kd.outLen()], b.inF[o.kind][o.variant])
	}
	return cl.DoComplex(ctx, kd.job(), buf.c[:kd.outLen()], b.inC[o.kind][o.variant])
}

// relErrOf compares the response in buf with the library result.
func (b *fftdBench) relErrOf(o op, buf *buffers) float64 {
	kd := &b.m[o.kind]
	want := b.want[o.kind][o.variant]
	if kd.family != "real" {
		return relErr(buf.c[:len(want)], want)
	}
	var d, m float64
	for i, w := range want {
		d = math.Max(d, cmplx.Abs(complex(buf.f[2*i], buf.f[2*i+1])-w))
		m = math.Max(m, cmplx.Abs(w))
	}
	return d / m
}

// reference computes every kind's in-process library result and checks it
// against the naive-DFT oracle.
func (b *fftdBench) reference() (attempted int64, errs []string) {
	b.want = make([][][]complex128, len(b.m))
	for k := range b.m {
		kd := &b.m[k]
		for v := 0; v < variants; v++ {
			attempted++
			got, oracle, err := b.libraryResult(k, v)
			if err == nil {
				if e := relErr(got, oracle); e > tol {
					err = fmt.Errorf("library result vs naive-DFT oracle: error %.3g", e)
				}
			}
			if err != nil {
				b.failed[k]++
				errs = append(errs, fmt.Sprintf("%s variant %d: %v", kd.name, v, err))
			}
			b.want[k] = append(b.want[k], got)
		}
	}
	return attempted, errs
}

// libraryResult transforms input variant v of kind k with a sequential
// library plan of the kind's family, and returns it with the naive
// oracle's answer.
func (b *fftdBench) libraryResult(k, v int) (got, oracle []complex128, err error) {
	kd := &b.m[k]
	switch kd.family {
	case "real":
		p, err := spiralfft.NewRealPlan(kd.n, nil)
		if err != nil {
			return nil, nil, err
		}
		defer p.Close()
		f := b.inF[k][v]
		got = make([]complex128, kd.outLen())
		if err := p.Forward(got, f); err != nil {
			return nil, nil, err
		}
		x := make([]complex128, kd.n)
		for i, r := range f {
			x[i] = complex(r, 0)
		}
		return got, naive(x, false)[:kd.outLen()], nil
	case "batch":
		p, err := spiralfft.NewBatchPlan(kd.n, kd.count, nil)
		if err != nil {
			return nil, nil, err
		}
		defer p.Close()
		x := b.inC[k][v]
		got = make([]complex128, len(x))
		if kd.inv {
			err = p.Inverse(got, x)
		} else {
			err = p.Forward(got, x)
		}
		for i := 0; i < kd.count; i++ {
			oracle = append(oracle, naive(x[i*kd.n:(i+1)*kd.n], kd.inv)...)
		}
		return got, oracle, err
	default:
		p, err := spiralfft.NewPlan(kd.n, nil)
		if err != nil {
			return nil, nil, err
		}
		defer p.Close()
		x := b.inC[k][v]
		got = make([]complex128, len(x))
		if kd.inv {
			err = p.Inverse(got, x)
		} else {
			err = p.Forward(got, x)
		}
		return got, naive(x, kd.inv), err
	}
}

// setup starts a server with an empty plan Cache and empty wisdom on a
// loopback listener, and returns once every request kind has had one
// successful response.
func (b *fftdBench) setup() (time.Duration, error) {
	start := time.Now()
	b.cache = &spiralfft.Cache{}
	cfg := b.cfg
	cfg.Cache = b.cache
	b.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		return 0, err
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // http.ErrServerClosed once teardown shuts it down
	}()
	b.tr = &http.Transport{MaxIdleConnsPerHost: b.clients, MaxConnsPerHost: b.clients, DisableCompression: true}
	b.cl = &client.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: b.tr}}
	buf := b.newBuffers()
	for k := range b.m {
		if err := b.call(context.Background(), b.cl, op{kind: k}, buf); err != nil {
			b.teardown()
			return 0, fmt.Errorf("first %s request: %w", b.m[k].name, err)
		}
	}
	return time.Since(start), nil
}

// teardown stops the HTTP server and waits for it, then drops every plan.
func (b *fftdBench) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		b.hs.Close()
	}
	<-b.served
	b.tr.CloseIdleConnections()
	b.srv.Close()
	b.cache.Close()
}

// run is one timed phase: every client sends requests in its own seeded
// order until d has passed and the clients together have sent minOps.
func (b *fftdBench) run(d time.Duration) *phase {
	ctx, cancel := context.WithTimeout(context.Background(), max(d, maxPhase)+10*time.Second)
	defer cancel()
	loops := make([]loop, b.clients)
	for c := range loops {
		g, buf := newGen(b.m, b.seed, c), b.newBuffers()
		loops[c] = func(_ int64, ph *phase, fail []int64) time.Time {
			o := g.next()
			t0 := time.Now()
			err := b.call(ctx, b.cl, o, buf)
			t1 := time.Now()
			failed := err != nil || b.relErrOf(o, buf) > tol
			if failed {
				fail[o.kind]++
			}
			ph.record(t0, t1.Sub(t0), b.flops[o.kind], failed)
			return t1
		}
	}
	ph, fail := runLoops(loops, len(b.m), d, false)
	for k, n := range fail {
		b.failed[k] += n
	}
	return ph
}

// verify compares each kind's loopback response, for every input variant,
// with the in-process library result.
func (b *fftdBench) verify() (attempted int64, errs []string) {
	if b.want == nil {
		attempted, errs = b.reference()
	}
	buf := b.newBuffers()
	for k := range b.m {
		for v := 0; v < variants; v++ {
			attempted++
			o := op{kind: k, variant: v}
			err := b.call(context.Background(), b.cl, o, buf)
			if err == nil {
				if e := b.relErrOf(o, buf); e > tol {
					err = fmt.Errorf("response differs from the library result: error %.3g", e)
				}
			}
			if err != nil {
				b.failed[k]++
				errs = append(errs, fmt.Sprintf("%s variant %d: %v", b.m[k].name, v, err))
			}
		}
	}
	return attempted, errs
}

func (b *fftdBench) describe() []string {
	cfg := b.srv.Config()
	return []string{fmt.Sprintf("server workers=%d max_in_flight=%d planner=%s clients=%d",
		cfg.Workers, cfg.MaxInFlight, cfg.Planner, b.clients)}
}

func (b *fftdBench) kinds() mix        { return b.m }
func (b *fftdBench) failures() []int64 { return b.failed }
