package main

import (
	"fmt"
	"math"
	"math/cmplx"

	"spiralfft/internal/baseline"
)

// tol bounds the relative error of any checked output.
const tol = 1e-9

// oracleMax is the largest size checked against the O(n²) naive DFT; larger
// sizes are checked by round trip, Parseval and directly evaluated bins.
const oracleMax = 4096

// relErr returns max|got-want| / max|want|.
func relErr(got, want []complex128) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var d, m float64
	for i := range want {
		d = math.Max(d, cmplx.Abs(got[i]-want[i]))
		m = math.Max(m, cmplx.Abs(want[i]))
	}
	if m == 0 {
		return d
	}
	return d / m
}

// naive returns the DFT of x by the naive oracle; inv selects the unitary
// inverse conj(DFT(conj(x)))/n that Plan.Inverse computes.
func naive(x []complex128, inv bool) []complex128 {
	n := len(x)
	src := x
	if inv {
		src = conjugated(x)
	}
	y := make([]complex128, n)
	baseline.NewNaive(n).Transform(y, src)
	if inv {
		for i, v := range y {
			y[i] = cmplx.Conj(v) / complex(float64(n), 0)
		}
	}
	return y
}

func conjugated(x []complex128) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	return c
}

func energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// bin evaluates bin k of the forward (or unnormalised inverse) DFT of x
// directly, with each twiddle reduced mod n for accuracy.
func bin(x []complex128, k int, inv bool) complex128 {
	n := len(x)
	sign := -1.0
	if inv {
		sign = 1
	}
	var s complex128
	for j, v := range x {
		sn, cs := math.Sincos(sign * 2 * math.Pi * float64((j*k)%n) / float64(n))
		s += v * complex(cs, sn)
	}
	return s
}

// checkLarge validates y = F(x) (or F⁻¹(x) when inv) without an O(n²)
// oracle: back is the opposite transform of y, which must return x; energy
// must obey Parseval; and four bins must match their direct evaluation.
func checkLarge(x, y, back []complex128, inv bool) error {
	n := len(x)
	if e := relErr(back, x); e > tol {
		return fmt.Errorf("round trip error %.3g", e)
	}
	ex, ey := energy(x), energy(y)
	want := ex * float64(n)
	if inv {
		want = ex / float64(n)
	}
	if math.Abs(ey-want) > tol*want {
		return fmt.Errorf("Parseval: energy %.17g, want %.17g", ey, want)
	}
	scale := 1.0
	if inv {
		scale = 1 / float64(n)
	}
	var ymax float64
	for _, v := range y {
		ymax = math.Max(ymax, cmplx.Abs(v))
	}
	for _, k := range []int{0, 1, n / 3, n - 1} {
		b := bin(x, k, inv) * complex(scale, 0)
		if cmplx.Abs(y[k]-b) > tol*ymax {
			return fmt.Errorf("bin %d = %v, direct evaluation %v", k, y[k], b)
		}
	}
	return nil
}
