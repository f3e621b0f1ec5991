package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"spiralfft"
	"spiralfft/internal/baseline"
	"spiralfft/internal/complexvec"
	"spiralfft/internal/faultinject"
	"spiralfft/internal/metrics"
	"spiralfft/internal/wire"
)

// newTestServer builds a server with test-friendly limits and its own
// cache (so tests don't pollute the process-wide one).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = &spiralfft.Cache{}
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// run pushes one request through the core and returns the raw output.
func run(t *testing.T, s *Server, ctx context.Context, req *Request, payload []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := s.Transform(ctx, req, bytes.NewReader(payload), &out); err != nil {
		t.Fatalf("Transform(%+v): %v", *req, err)
	}
	return out.Bytes()
}

func complexPayload(t *testing.T, v []complex128) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wire.WriteComplexLE(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func floatPayload(t *testing.T, v []float64) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wire.WriteFloatLE(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func decodeComplex(t *testing.T, b []byte, n int) []complex128 {
	t.Helper()
	if len(b) != n*16 {
		t.Fatalf("payload is %d bytes, want %d", len(b), n*16)
	}
	v := make([]complex128, n)
	if err := wire.ReadComplexLE(bytes.NewReader(b), v); err != nil {
		t.Fatal(err)
	}
	return v
}

func decodeFloat(t *testing.T, b []byte, n int) []float64 {
	t.Helper()
	if len(b) != n*8 {
		t.Fatalf("payload is %d bytes, want %d", len(b), n*8)
	}
	v := make([]float64, n)
	if err := wire.ReadFloatLE(bytes.NewReader(b), v); err != nil {
		t.Fatal(err)
	}
	return v
}

func randomReal(n int, seed uint64) []float64 {
	c := complexvec.Random(n, seed)
	f := make([]float64, n)
	for i, v := range c {
		f[i] = real(v)
	}
	return f
}

// TestTransformDFTMatchesOracle: the served forward DFT equals the naive
// O(n²) definition, and inverse round-trips.
func TestTransformDFTMatchesOracle(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 64
	x := complexvec.Random(n, 1)
	ctx := context.Background()

	fwd := decodeComplex(t, run(t, s, ctx, &Request{Family: FamilyDFT, N: n}, complexPayload(t, x)), n)
	want := make([]complex128, n)
	baseline.NewNaive(n).Transform(want, x)
	if !complexvec.Equalish(fwd, want, 1e-9) {
		t.Fatalf("forward differs from naive oracle by %g", complexvec.MaxError(fwd, want))
	}

	back := decodeComplex(t, run(t, s, ctx, &Request{Family: FamilyDFT, N: n, Inverse: true}, complexPayload(t, fwd)), n)
	if !complexvec.Equalish(back, x, 1e-9) {
		t.Fatalf("inverse(forward(x)) differs from x by %g", complexvec.MaxError(back, x))
	}

	snap := s.Metrics()
	if snap.OK != 2 || snap.Latency.Count != 2 {
		t.Fatalf("metrics after 2 requests: %+v", snap)
	}
}

// TestTransformAllFamiliesRoundTrip drives every family through the wire
// path: forward then inverse recovers the input (stft compares forward
// output against the library plan instead — overlap-add reconstruction is
// only exact under COLA interior conditions).
func TestTransformAllFamiliesRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()

	t.Run("batch", func(t *testing.T) {
		req := &Request{Family: FamilyBatch, N: 32, Count: 4}
		x := complexvec.Random(32*4, 2)
		fwd := decodeComplex(t, run(t, s, ctx, req, complexPayload(t, x)), 32*4)
		inv := *req
		inv.Inverse = true
		back := decodeComplex(t, run(t, s, ctx, &inv, complexPayload(t, fwd)), 32*4)
		if !complexvec.Equalish(back, x, 1e-9) {
			t.Fatalf("round trip error %g", complexvec.MaxError(back, x))
		}
	})

	t.Run("dft2d", func(t *testing.T) {
		req := &Request{Family: FamilyDFT2D, Rows: 8, Cols: 16}
		x := complexvec.Random(8*16, 3)
		fwd := decodeComplex(t, run(t, s, ctx, req, complexPayload(t, x)), 8*16)
		inv := *req
		inv.Inverse = true
		back := decodeComplex(t, run(t, s, ctx, &inv, complexPayload(t, fwd)), 8*16)
		if !complexvec.Equalish(back, x, 1e-9) {
			t.Fatalf("round trip error %g", complexvec.MaxError(back, x))
		}
	})

	t.Run("wht", func(t *testing.T) {
		req := &Request{Family: FamilyWHT, N: 64}
		x := complexvec.Random(64, 4)
		fwd := decodeComplex(t, run(t, s, ctx, req, complexPayload(t, x)), 64)
		inv := *req
		inv.Inverse = true
		back := decodeComplex(t, run(t, s, ctx, &inv, complexPayload(t, fwd)), 64)
		if !complexvec.Equalish(back, x, 1e-9) {
			t.Fatalf("round trip error %g", complexvec.MaxError(back, x))
		}
	})

	t.Run("real", func(t *testing.T) {
		const n = 128
		req := &Request{Family: FamilyReal, N: n}
		x := randomReal(n, 5)
		fwd := run(t, s, ctx, req, floatPayload(t, x))
		spec := decodeComplex(t, fwd, n/2+1)
		inv := *req
		inv.Inverse = true
		back := decodeFloat(t, run(t, s, ctx, &inv, complexPayload(t, spec)), n)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("sample %d: %g != %g", i, back[i], x[i])
			}
		}
	})

	t.Run("dct", func(t *testing.T) {
		const n = 64
		req := &Request{Family: FamilyDCT, N: n}
		x := randomReal(n, 6)
		fwd := decodeFloat(t, run(t, s, ctx, req, floatPayload(t, x)), n)
		inv := *req
		inv.Inverse = true
		back := decodeFloat(t, run(t, s, ctx, &inv, floatPayload(t, fwd)), n)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("sample %d: %g != %g", i, back[i], x[i])
			}
		}
	})

	t.Run("stft", func(t *testing.T) {
		const signal, frame, hop = 512, 64, 32
		req := &Request{Family: FamilySTFT, N: signal, Frame: frame, Hop: hop}
		x := randomReal(signal, 7)
		got := run(t, s, ctx, req, floatPayload(t, x))

		p, err := spiralfft.NewSTFTPlan(frame, hop, spiralfft.WindowHann, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		frames := p.NewSpectrogram(signal)
		if err := p.Analyze(frames, x); err != nil {
			t.Fatal(err)
		}
		bins := p.Bins()
		if len(got) != len(frames)*bins*16 {
			t.Fatalf("stft payload is %d bytes, want %d", len(got), len(frames)*bins*16)
		}
		for fi, row := range frames {
			gotRow := decodeComplex(t, got[fi*bins*16:(fi+1)*bins*16], bins)
			if !complexvec.Equalish(gotRow, row, 1e-9) {
				t.Fatalf("frame %d differs by %g", fi, complexvec.MaxError(gotRow, row))
			}
		}
	})
}

// TestTransformZeroAllocSteadyState: once the handle is warm, serving a
// request through the core allocates nothing — the tentpole guarantee of
// the lease-based API.
func TestTransformZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random; allocation counts are meaningless")
	}
	s := newTestServer(t, Config{})
	cases := []struct {
		name    string
		req     Request
		payload []byte
	}{
		{"dft", Request{Family: FamilyDFT, N: 512}, complexPayload(t, complexvec.Random(512, 8))},
		{"real", Request{Family: FamilyReal, N: 512}, floatPayload(t, randomReal(512, 9))},
		{"dct", Request{Family: FamilyDCT, N: 256}, floatPayload(t, randomReal(256, 10))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := c.req
			r := bytes.NewReader(c.payload)
			// Warm: builds the handle and populates the lease arena.
			if err := s.Transform(nil, &req, r, io.Discard); err != nil {
				t.Fatal(err)
			}
			var err error
			got := testing.AllocsPerRun(100, func() {
				r.Reset(c.payload)
				if e := s.Transform(nil, &req, r, io.Discard); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got > 0 {
				t.Errorf("steady-state Transform: %.1f allocs/op, want 0", got)
			}
		})
	}
}

// TestAdmissionShedsAndRecovers: beyond MaxInFlight requests are shed with
// a sane Retry-After; releasing a slot re-admits.
func TestAdmissionShedsAndRecovers(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2})

	rel1, _, ok := s.Admit()
	if !ok {
		t.Fatal("first request shed by an idle server")
	}
	rel2, _, ok := s.Admit()
	if !ok {
		t.Fatal("second of MaxInFlight=2 shed")
	}
	_, retry, ok := s.Admit()
	if ok {
		t.Fatal("request beyond MaxInFlight admitted")
	}
	if retry < time.Second {
		t.Fatalf("Retry-After %v, want ≥ 1s", retry)
	}
	if snap := s.Metrics(); snap.Shed != 1 {
		t.Fatalf("shed count %d, want 1", snap.Shed)
	}
	rel2()
	rel3, _, ok := s.Admit()
	if !ok {
		t.Fatal("request after release shed")
	}
	rel3()
	rel1()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain: %d", got)
	}
}

// TestCancelledContextShortCircuits: a request arriving with its deadline
// already spent is cancelled before (or during) the transform, never
// reported OK, and counted as cancelled.
func TestCancelledContextShortCircuits(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := &Request{Family: FamilyDFT, N: 256}
	var out bytes.Buffer
	err := s.Transform(ctx, req, bytes.NewReader(complexPayload(t, complexvec.Random(256, 11))), &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled request wrote %d output bytes", out.Len())
	}
	if snap := s.Metrics(); snap.Cancelled != 1 {
		t.Fatalf("cancelled count %d (snapshot %+v)", snap.Cancelled, snap)
	}
}

// TestMidTransformCancellation: cancellation injected at a region boundary
// (the library's cancellation granularity) aborts the request with ctx's
// error and no output.
func TestMidTransformCancellation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	req := &Request{Family: FamilyDFT, N: 4096}
	payload := complexPayload(t, complexvec.Random(4096, 12))

	// Warm the handle outside the armed window.
	if err := s.Transform(context.Background(), req, bytes.NewReader(payload), io.Discard); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := faultinject.Arm(faultinject.Config{
		Worker: faultinject.AnyWorker, CancelAt: 1, Cancel: cancel,
	})
	defer disarm()

	var out bytes.Buffer
	err := s.Transform(ctx, req, bytes.NewReader(payload), &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled request wrote %d output bytes", out.Len())
	}
}

// TestHandleSingleFlight: concurrent first requests for the same plan key
// build exactly one handle.
func TestHandleSingleFlight(t *testing.T) {
	s := newTestServer(t, Config{})
	req := Request{Family: FamilyDFT, N: 128}
	payload := complexPayload(t, complexvec.Random(128, 13))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			errs[i] = s.Transform(context.Background(), &r, bytes.NewReader(payload), io.Discard)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.PlanCount(); got != 1 {
		t.Fatalf("plan count %d, want 1", got)
	}
}

// TestTenantWisdomIsolation: each tenant gets its own wisdom namespace,
// populated by its own plan builds.
func TestTenantWisdomIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	payload := complexPayload(t, complexvec.Random(64, 14))
	for _, tenant := range []string{"alice", "bob"} {
		req := &Request{Family: FamilyDFT, N: 64, Tenant: tenant}
		if err := s.Transform(context.Background(), req, bytes.NewReader(payload), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := s.Wisdom("alice"), s.Wisdom("bob"); a == b {
		t.Fatal("tenants share a wisdom namespace")
	}
	if s.Wisdom("alice").Len() == 0 {
		t.Fatal("serving did not populate tenant wisdom")
	}
	if s.Wisdom("carol").Len() != 0 {
		t.Fatal("unserved tenant has wisdom")
	}
	// Two tenants, same size: two distinct handles.
	if got := s.PlanCount(); got != 2 {
		t.Fatalf("plan count %d, want 2 (one per tenant)", got)
	}
}

// TestRequestValidation: malformed shapes are rejected, counted as errors,
// and do not leave dead handles behind.
func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxN: 1 << 10})
	bad := []Request{
		{Family: FamilyDFT, N: 0},
		{Family: FamilyDFT, N: 1 << 11},
		{Family: "nope", N: 8},
		{Family: FamilyBatch, N: 8},                // missing count
		{Family: FamilyDFT2D, Rows: 8},             // missing cols
		{Family: FamilySTFT, N: 16, Frame: 32},     // signal < frame
		{Family: FamilySTFT, N: 64, Frame: 32},     // missing hop
		{Family: FamilyBatch, N: 1 << 9, Count: 8}, // total over MaxN
	}
	for i := range bad {
		if err := s.Transform(context.Background(), &bad[i], bytes.NewReader(nil), io.Discard); err == nil {
			t.Errorf("request %d (%+v) accepted", i, bad[i])
		}
	}
	if got := s.PlanCount(); got != 0 {
		t.Fatalf("plan count %d after only invalid requests", got)
	}
	if snap := s.Metrics(); snap.Errors != int64(len(bad)) {
		t.Fatalf("error count %d, want %d", snap.Errors, len(bad))
	}
}

// TestMetricsOutcomesSeparated: ok/cancelled/shed/error counters land in
// their own buckets.
func TestMetricsOutcomesSeparated(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	payload := complexPayload(t, complexvec.Random(64, 15))
	req := &Request{Family: FamilyDFT, N: 64}

	if err := s.Transform(context.Background(), req, bytes.NewReader(payload), io.Discard); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Transform(ctx, req, bytes.NewReader(payload), io.Discard)
	s.Transform(context.Background(), &Request{Family: FamilyDFT, N: -1}, bytes.NewReader(nil), io.Discard)
	rel, _, _ := s.Admit()
	s.Admit() // shed (MaxInFlight 1)
	rel()

	snap := s.Metrics()
	want := metrics.RequestSnapshot{OK: 1, Cancelled: 1, Errors: 1, Shed: 1}
	if snap.OK != want.OK || snap.Cancelled != want.Cancelled || snap.Errors != want.Errors || snap.Shed != want.Shed {
		t.Fatalf("snapshot %+v, want counts %+v", snap, want)
	}
	if snap.Total() != 4 {
		t.Fatalf("total %d, want 4", snap.Total())
	}
}

// TestServersShareOneTeam: a default-config server serves the five
// parallel shapes of a typical request mix — and a second server serves
// them again after the first is closed — while every pooled plan in the
// process dispatches onto one shared worker team: the live pool count
// grows by at most one, and every response matches the in-process library.
func TestServersShareOneTeam(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		t.Skip("needs GOMAXPROCS ≥ 2 for parallel plans")
	}
	live0 := spiralfft.PoolTotals().Live
	checkLive := func(when string) {
		t.Helper()
		if d := spiralfft.PoolTotals().Live - live0; d > 1 {
			t.Fatalf("%s: %d live pools added, want at most 1", when, d)
		}
	}
	opt := &spiralfft.Options{Workers: workers}
	type shape struct {
		req  Request
		in   []byte
		want []complex128
	}
	var shapes []shape
	parallel := 0
	for i, n := range []int{256, 1024, 4096} {
		p, err := spiralfft.NewPlan(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsParallel() {
			parallel++
		}
		x := complexvec.Random(n, uint64(i+1))
		want := make([]complex128, n)
		if err := p.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		p.Close()
		shapes = append(shapes, shape{Request{Family: FamilyDFT, N: n}, complexPayload(t, x), want})
	}
	{
		const n, count = 64, 16
		b, err := spiralfft.NewBatchPlan(n, count, opt)
		if err != nil {
			t.Fatal(err)
		}
		x := complexvec.Random(n*count, 4)
		want := make([]complex128, n*count)
		if err := b.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		b.Close()
		shapes = append(shapes, shape{Request{Family: FamilyBatch, N: n, Count: count}, complexPayload(t, x), want})
	}
	{
		const n = 4096
		r, err := spiralfft.NewRealPlan(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		x := randomReal(n, 5)
		want := make([]complex128, n/2+1)
		if err := r.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		r.Close()
		shapes = append(shapes, shape{Request{Family: FamilyReal, N: n}, floatPayload(t, x), want})
	}
	if parallel == 0 {
		t.Skipf("no dft shape is parallel with %d workers", workers)
	}
	checkLive("library plans")

	ctx := context.Background()
	for round := 0; round < 2; round++ {
		s := New(Config{})
		for rep := 0; rep < 3; rep++ {
			for _, sh := range shapes {
				got := decodeComplex(t, run(t, s, ctx, &sh.req, sh.in), len(sh.want))
				if !complexvec.Equalish(got, sh.want, 1e-9) {
					t.Fatalf("server %d %+v differs from the library by %g",
						round, sh.req, complexvec.MaxError(got, sh.want))
				}
				checkLive("serving")
			}
		}
		s.Close()
		checkLive("after Close")
	}
}
