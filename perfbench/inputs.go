package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Seeded kernel generation. The seed sets only the data arrays; every
// kernel's control flow is fixed by construction, so the simulated
// instruction and cycle counts are the same for every seed and a
// throughput figure compares like with like across seeds:
//
//   - the FIR and matmul kernels multiply by repeated addition, so their work
//     is the sum of the coefficients; coefficients are a random split of a
//     fixed total;
//   - insertion sort's work is the array's inversion vector; the array is
//     built from a random inversion vector with a fixed total, and no element
//     moves to the front, so every inner loop ends on the same compare.
//
// Element values stay below 128 so every array fits the narrowest zoo data
// memory (toy: 8 bits × 256 words) and compares the same signed or unsigned.

// split returns parts non-negative integers summing to total, each at most
// limit[i], drawn one unit at a time.
func split(r *rand.Rand, total, parts int, limit []int) []int {
	out := make([]int, parts)
	for u := 0; u < total; u++ {
		for {
			i := r.Intn(parts)
			if out[i] < limit[i] {
				out[i]++
				break
			}
		}
	}
	return out
}

// fill returns n copies of v (a split limit).
func fill(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func values(r *rand.Rand, n, max int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = r.Intn(max + 1)
	}
	return v
}

func list(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ", ")
}

// firKernel is an outs-output, taps-tap FIR filter whose coefficients sum
// to coefSum, with its arrays in data memory mem.
func firKernel(r *rand.Rand, mem string, taps, outs, coefSum int) string {
	nx := outs + taps - 1
	x := values(r, nx, 15)
	c := split(r, coefSum, taps, fill(taps, 127))
	return fmt.Sprintf(`// fir: out[i] = sum_k c[k]*x[i+k], %d taps, software multiply.
var i, k, acc, t;
array x[%d] in %s at 0 = { %s };
array c[%d] in %s at %d = { %s };
array out[%d] in %s at %d;
for i = 0 to %d {
  acc = 0;
  for k = 0 to %d {
    t = c[k];
    while (t != 0) { acc = acc + x[i + k]; t = t - 1; }
  }
  out[i] = acc;
}
`, taps, nx, mem, list(x), taps, mem, nx, list(c), outs, mem, nx+taps, outs-1, taps-1)
}

// matmulKernel is an n×n matrix multiply whose right operand sums to bSum.
func matmulKernel(r *rand.Rand, mem string, n, bSum int) string {
	a := values(r, n*n, 9)
	b := split(r, bSum, n*n, fill(n*n, 127))
	return fmt.Sprintf(`// matmul: out = a*b for %dx%d matrices, software multiply.
var i, j, k, acc, ai, bk, t;
array a[%d] in %s at 0 = { %s };
array b[%d] in %s at %d = { %s };
array out[%d] in %s at %d;
ai = 0;
for i = 0 to %d {
  for j = 0 to %d {
    acc = 0;
    bk = j;
    for k = 0 to %d {
      t = b[bk];
      while (t != 0) { acc = acc + a[ai + k]; t = t - 1; }
      bk = bk + %d;
    }
    out[ai + j] = acc;
  }
  ai = ai + %d;
}
`, n, n, n*n, mem, list(a), n*n, mem, n*n, list(b), n*n, mem, 2*n*n,
		n-1, n-1, n-1, n, n)
}

// isortKernel sorts n distinct values whose inversion count is inversions.
func isortKernel(r *rand.Rand, mem string, n, inversions int) string {
	// inv[i] counts the earlier elements greater than element i; keeping it
	// below i means element i never reaches the front.
	limit := make([]int, n)
	for i := 2; i < n; i++ {
		limit[i] = i - 1
	}
	inv := split(r, inversions, n, limit)
	// order lists element indices by ascending value.
	var order []int
	for i := 0; i < n; i++ {
		at := len(order) - inv[i]
		order = append(order, 0)
		copy(order[at+1:], order[at:])
		order[at] = i
	}
	vals := r.Perm(120)[:n]
	sort.Ints(vals)
	a := make([]int, n)
	for rank, i := range order {
		a[i] = vals[rank]
	}
	return fmt.Sprintf(`// isort: insertion sort of %d distinct values.
var i, j, key, t, go;
array a[%d] in %s at 0 = { %s };
array out[%d] in %s at %d;
for i = 0 to %d { out[i] = a[i]; }
for i = 1 to %d {
  key = out[i];
  j = i - 1;
  go = 1;
  while (go != 0) {
    if (j < 0) { go = 0; } else {
      t = out[j];
      if (t > key) { out[j + 1] = t; j = j - 1; } else { go = 0; }
    }
  }
  out[j + 1] = key;
}
`, n, n, mem, list(a), n, mem, n, n-1, n-1)
}
