// Package workloads provides the four OCCAM benchmark programs of the
// thesis's Chapter 6 evaluation — matrix multiplication, the fast Fourier
// transform, Cholesky decomposition and the congruence transformation — as
// parameterized source generators, together with Go reference
// implementations using bit-identical integer arithmetic for verification.
//
// The queue machine is a 32-bit integer machine, so the FFT uses Q14
// block-fixed-point twiddle factors and Cholesky operates on an exactly
// decomposable integer matrix (A = L·Lᵀ for an integer L), making every
// expected result exact.
package workloads

import (
	"fmt"
	"math"
	"strings"

	"queuemachine/internal/compile"
)

// Workload couples an OCCAM program with its result checker.
type Workload struct {
	Name   string
	Source string
	// Check verifies the final data segment of a simulated run.
	Check func(art *compile.Artifact, data []int32) error
}

// Gated returns the eight exact-gated programs at their benchmark sizes,
// in bench order: the four Chapter 6 programs, then the second
// generation.
func Gated() []Workload {
	return []Workload{
		MatMul(8), FFT(6), Cholesky(8), Congruence(8),
		Bitonic(4), LU(6), Stencil(16, 4), Chain(24),
	}
}

// vec reads vector name[i] out of a run's data segment.
func vec(art *compile.Artifact, data []int32, name string, i int) (int32, error) {
	base, err := art.VectorBase(name)
	if err != nil {
		return 0, err
	}
	idx := int(base)/4 + i
	if idx < 0 || idx >= len(data) {
		return 0, fmt.Errorf("workloads: %s[%d] outside data segment", name, i)
	}
	return data[idx], nil
}

func checkVector(art *compile.Artifact, data []int32, name string, want []int32) error {
	for i, w := range want {
		got, err := vec(art, data, name, i)
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("workloads: %s[%d] = %d, want %d", name, i, got, w)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Matrix multiplication (Table 6.2 / Figure 6.8): C = A·B with one context
// tree per row, spawned by a replicated par.

// matInit gives the deterministic test matrices.
func matInitA(t int) int32 { return int32(t%7 - 3) }
func matInitB(t int) int32 { return int32(t%5 - 2) }

// MatMul builds the n×n matrix multiplication program.
func MatMul(n int) Workload {
	src := fmt.Sprintf(`def n = %d:
def nn = %d:
var a[nn], b[nn], c[nn]:
proc dorow(value i) =
  var j, k, s:
  seq
    j := 0
    while j < n
      seq
        s := 0
        k := 0
        while k < n
          seq
            s := s + (a[(i*n)+k] * b[(k*n)+j])
            k := k + 1
        c[(i*n)+j] := s
        j := j + 1
seq
  par t = [0 for nn]
    seq
      a[t] := (t \ 7) - 3
      b[t] := (t \ 5) - 2
  par i = [0 for n]
    dorow(i)
`, n, n*n)
	return Workload{
		Name:   fmt.Sprintf("matmul-%dx%d", n, n),
		Source: src,
		Check: func(art *compile.Artifact, data []int32) error {
			want := RefMatMul(n)
			return checkVector(art, data, "c", want)
		},
	}
}

// RefMatMul computes the expected C with the same arithmetic.
func RefMatMul(n int) []int32 {
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	for t := range a {
		a[t] = matInitA(t)
		b[t] = matInitB(t)
	}
	c := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Fast Fourier transform (Table 6.3 / Figure 6.10): radix-2 decimation in
// time on Q14 fixed point; every stage's butterflies run as a replicated
// par.

func fftInputRe(i int) int32 { return int32(100 * (i%5 - 2)) }
func fftInputIm(i int) int32 { return int32(50 * (i%3 - 1)) }

func bitRev(i, logN int) int {
	r := 0
	for b := 0; b < logN; b++ {
		r = r<<1 | i&1
		i >>= 1
	}
	return r
}

// fftTwiddles returns the Q14 twiddle factors for an n-point transform.
func fftTwiddles(n int) (re, im []int32) {
	re = make([]int32, n/2)
	im = make([]int32, n/2)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		re[k] = int32(math.Round(math.Cos(ang) * 16384))
		im[k] = int32(math.Round(math.Sin(ang) * 16384))
	}
	return re, im
}

// FFT builds the 2^logN-point transform program. The input is loaded in
// bit-reversed order (the permutation is baked into the generated
// initialization), and each of the logN stages spawns one context per
// butterfly.
func FFT(logN int) Workload {
	n := 1 << logN
	wre, wim := fftTwiddles(n)
	var b strings.Builder
	fmt.Fprintf(&b, "def n = %d:\ndef half = %d:\n", n, n/2)
	fmt.Fprintf(&b, "var xr[n], xi[n], wre[half], wim[half]:\n")
	b.WriteString(`proc butterfly(value bf, value len, value hl) =
  var k, j, tw, wr, wi, vr, vi, tr, ti, ur, ui:
  seq
    k := (bf / hl) * len
    j := bf \ hl
    tw := (j * n) / len
    wr := wre[tw]
    wi := wim[tw]
    vr := xr[(k + j) + hl]
    vi := xi[(k + j) + hl]
    tr := ((wr * vr) - (wi * vi)) >> 14
    ti := ((wr * vi) + (wi * vr)) >> 14
    ur := xr[k + j]
    ui := xi[k + j]
    xr[k + j] := ur + tr
    xi[k + j] := ui + ti
    xr[(k + j) + hl] := ur - tr
    xi[(k + j) + hl] := ui - ti
seq
`)
	// Load the input in bit-reversed order and the twiddle table.
	for i := 0; i < n; i++ {
		src := bitRev(i, logN)
		fmt.Fprintf(&b, "  xr[%d] := %d\n", i, fftInputRe(src))
		fmt.Fprintf(&b, "  xi[%d] := %d\n", i, fftInputIm(src))
	}
	for k := 0; k < n/2; k++ {
		fmt.Fprintf(&b, "  wre[%d] := %d\n", k, wre[k])
		fmt.Fprintf(&b, "  wim[%d] := %d\n", k, wim[k])
	}
	b.WriteString(`  var len, hl:
  seq
    len := 2
    while len <= n
      seq
        hl := len / 2
        par bf = [0 for half]
          butterfly(bf, len, hl)
        len := len * 2
`)
	return Workload{
		Name:   fmt.Sprintf("fft-%d", n),
		Source: b.String(),
		Check: func(art *compile.Artifact, data []int32) error {
			re, im := RefFFT(logN)
			if err := checkVector(art, data, "xr", re); err != nil {
				return err
			}
			return checkVector(art, data, "xi", im)
		},
	}
}

// RefFFT runs the identical fixed-point transform in Go.
func RefFFT(logN int) (re, im []int32) {
	n := 1 << logN
	re = make([]int32, n)
	im = make([]int32, n)
	for i := 0; i < n; i++ {
		src := bitRev(i, logN)
		re[i] = fftInputRe(src)
		im[i] = fftInputIm(src)
	}
	wre, wim := fftTwiddles(n)
	for length := 2; length <= n; length *= 2 {
		half := length / 2
		for bf := 0; bf < n/2; bf++ {
			k := bf / half * length
			j := bf % half
			tw := j * n / length
			wr, wi := wre[tw], wim[tw]
			vr, vi := re[k+j+half], im[k+j+half]
			tr := (wr*vr - wi*vi) >> 14
			ti := (wr*vi + wi*vr) >> 14
			ur, ui := re[k+j], im[k+j]
			re[k+j], im[k+j] = ur+tr, ui+ti
			re[k+j+half], im[k+j+half] = ur-tr, ui-ti
		}
	}
	return re, im
}

// ---------------------------------------------------------------------------
// Cholesky decomposition (Table 6.4 / Figure 6.11): A = L·Lᵀ for an integer
// lower-triangular L, recovered exactly with an integer Newton square root;
// each column's below-diagonal entries compute in a replicated par.

// cholL gives the generating factor.
func cholL(n, i, j int) int32 {
	switch {
	case i == j:
		return int32(i + 2)
	case j < i:
		return int32((i+j)%4 + 1)
	default:
		return 0
	}
}

// RefCholeskyA builds A = L·Lᵀ.
func RefCholeskyA(n int) []int32 {
	a := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for k := 0; k < n; k++ {
				s += cholL(n, i, k) * cholL(n, j, k)
			}
			a[i*n+j] = s
		}
	}
	return a
}

// RefCholeskyL gives the expected factor.
func RefCholeskyL(n int) []int32 {
	l := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l[i*n+j] = cholL(n, i, j)
		}
	}
	return l
}

// Cholesky builds the n×n decomposition program.
func Cholesky(n int) Workload {
	a := RefCholeskyA(n)
	var b strings.Builder
	fmt.Fprintf(&b, "def n = %d:\ndef nn = %d:\n", n, n*n)
	b.WriteString(`var a[nn], l[nn]:
proc isqrt(value x, var r) =
  var g:
  seq
    g := x
    while (g * g) > x
      g := (g + (x / g)) / 2
    r := g
proc colentry(value i, value j) =
  var s, k:
  seq
    s := a[(i*n)+j]
    k := 0
    while k < j
      seq
        s := s - (l[(i*n)+k] * l[(j*n)+k])
        k := k + 1
    l[(i*n)+j] := s / l[(j*n)+j]
seq
`)
	for i, v := range a {
		fmt.Fprintf(&b, "  a[%d] := %d\n", i, v)
	}
	b.WriteString(`  var j, s, k, d:
  seq
    j := 0
    while j < n
      seq
        s := a[(j*n)+j]
        k := 0
        while k < j
          seq
            s := s - (l[(j*n)+k] * l[(j*n)+k])
            k := k + 1
        isqrt(s, d)
        l[(j*n)+j] := d
        par i = [j+1 for (n-1)-j]
          colentry(i, j)
        j := j + 1
`)
	return Workload{
		Name:   fmt.Sprintf("cholesky-%dx%d", n, n),
		Source: b.String(),
		Check: func(art *compile.Artifact, data []int32) error {
			return checkVector(art, data, "l", RefCholeskyL(n))
		},
	}
}

// ---------------------------------------------------------------------------
// Congruence transformation (Table 6.5 / Figure 6.12): B = Pᵀ·A·P via two
// row-parallel matrix products with an intermediate T = Pᵀ·A.

func congA(t int) int32 { return int32(t%6 - 2) }
func congP(t int) int32 { return int32(t%4 - 1) }

// Congruence builds the n×n transformation program.
func Congruence(n int) Workload {
	src := fmt.Sprintf(`def n = %d:
def nn = %d:
var a[nn], p[nn], tm[nn], bm[nn]:
proc trow(value i) =
  var j, k, s:
  seq
    j := 0
    while j < n
      seq
        s := 0
        k := 0
        while k < n
          seq
            s := s + (p[(k*n)+i] * a[(k*n)+j])
            k := k + 1
        tm[(i*n)+j] := s
        j := j + 1
proc brow(value i) =
  var j, k, s:
  seq
    j := 0
    while j < n
      seq
        s := 0
        k := 0
        while k < n
          seq
            s := s + (tm[(i*n)+k] * p[(k*n)+j])
            k := k + 1
        bm[(i*n)+j] := s
        j := j + 1
seq
  par t = [0 for nn]
    seq
      a[t] := (t \ 6) - 2
      p[t] := (t \ 4) - 1
  par i = [0 for n]
    trow(i)
  par i = [0 for n]
    brow(i)
`, n, n*n)
	return Workload{
		Name:   fmt.Sprintf("congruence-%dx%d", n, n),
		Source: src,
		Check: func(art *compile.Artifact, data []int32) error {
			return checkVector(art, data, "bm", RefCongruence(n))
		},
	}
}

// RefCongruence computes the expected B.
func RefCongruence(n int) []int32 {
	a := make([]int32, n*n)
	p := make([]int32, n*n)
	for t := range a {
		a[t] = congA(t)
		p[t] = congP(t)
	}
	tm := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for k := 0; k < n; k++ {
				s += p[k*n+i] * a[k*n+j]
			}
			tm[i*n+j] = s
		}
	}
	b := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for k := 0; k < n; k++ {
				s += tm[i*n+k] * p[k*n+j]
			}
			b[i*n+j] = s
		}
	}
	return b
}

// ---------------------------------------------------------------------------
// Figure 6.9: a binary-recursive procedure and its non-recursive
// counterpart, both summing a vector; the thesis uses the transformation to
// compare the recursive and iterative context-creation patterns.

// BinaryRecursiveSum builds the recursive form: sum(lo, n) splits in half.
func BinaryRecursiveSum(n int) Workload {
	src := fmt.Sprintf(`def n = %d:
var v[n], out[1]:
proc sum(value lo, value cnt, var s) =
  var a, b:
  if
    cnt = 1
      s := v[lo]
    cnt > 1
      seq
        sum(lo, cnt / 2, a)
        sum(lo + (cnt / 2), cnt - (cnt / 2), b)
        s := a + b
seq
  par t = [0 for n]
    v[t] := (t * t) - (3 * t)
  var r:
  seq
    sum(0, n, r)
    out[0] := r
`, n)
	return Workload{
		Name:   fmt.Sprintf("binsum-recursive-%d", n),
		Source: src,
		Check: func(art *compile.Artifact, data []int32) error {
			return checkVector(art, data, "out", []int32{refBinSum(n)})
		},
	}
}

// IterativeSum is the Figure 6.9 non-recursive counterpart.
func IterativeSum(n int) Workload {
	src := fmt.Sprintf(`def n = %d:
var v[n], out[1]:
seq
  par t = [0 for n]
    v[t] := (t * t) - (3 * t)
  var s, k:
  seq
    s := 0
    k := 0
    while k < n
      seq
        s := s + v[k]
        k := k + 1
    out[0] := s
`, n)
	return Workload{
		Name:   fmt.Sprintf("binsum-iterative-%d", n),
		Source: src,
		Check: func(art *compile.Artifact, data []int32) error {
			return checkVector(art, data, "out", []int32{refBinSum(n)})
		},
	}
}

func refBinSum(n int) int32 {
	var s int32
	for t := 0; t < n; t++ {
		s += int32(t*t - 3*t)
	}
	return s
}
