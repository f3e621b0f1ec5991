package main

import (
	"math"
	"reflect"
	"testing"
)

func mixes() map[string]mix {
	return map[string]mix{"lib-seq": libMix(seqSizes), "lib-par": libMix(parSizes), "fftd": fftdMix}
}

func sequence(m mix, seed int64, stream, n int) []op {
	g := newGen(m, seed, stream)
	s := make([]op, n)
	for i := range s {
		s[i] = g.next()
	}
	return s
}

func TestSeededMix(t *testing.T) {
	for name, m := range mixes() {
		rounds := 20
		n := rounds * m.roundLen()
		a, b := sequence(m, 7, 0, n), sequence(m, 7, 0, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", name)
		}
		c := sequence(m, 8, 0, n)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
		if reflect.DeepEqual(a, sequence(m, 7, 1, n)) {
			t.Errorf("%s: clients 0 and 1 of one seed got the same op sequence", name)
		}
		countA, countC := make([]int, len(m)), make([]int, len(m))
		for i := range a {
			countA[a[i].kind]++
			countC[c[i].kind]++
		}
		for k := range m {
			if want := rounds * m[k].weight; countA[k] != want || countC[k] != want {
				t.Errorf("%s: kind %s ran %d and %d times in %d rounds, want %d",
					name, m[k].name, countA[k], countC[k], rounds, want)
			}
		}
	}
}

// TestQuantilePlacement checks that p50 and p99 fall well inside one op
// class: the cumulative op share at every boundary between classes, taken
// in expected-latency order, is at least 5 points from 50% and from 99%.
// Kinds in one tier may come in any order, so every order is checked.
func TestQuantilePlacement(t *testing.T) {
	for name, m := range mixes() {
		total := float64(m.roundLen())
		var before int
		for i := 0; i < len(m); {
			j := i
			for j < len(m) && m[j].tier == m[i].tier {
				j++
			}
			// Every subset of the tier's kinds can come first.
			for set := 1; set < 1<<(j-i); set++ {
				sum := before
				for k := i; k < j; k++ {
					if set&(1<<(k-i)) != 0 {
						sum += m[k].weight
					}
				}
				if sum == int(total) {
					continue
				}
				share := 100 * float64(sum) / total
				for _, q := range []float64{50, 99} {
					if math.Abs(share-q) < 5 {
						t.Errorf("%s: a class boundary at %.1f%% of ops is within 5 points of p%g", name, share, q)
					}
				}
			}
			for k := i; k < j; k++ {
				before += m[k].weight
			}
			i = j
		}
	}
}

func TestMixTiersAreOrdered(t *testing.T) {
	for name, m := range mixes() {
		for k := 1; k < len(m); k++ {
			if m[k].tier < m[k-1].tier {
				t.Errorf("%s: kind %s is listed after a slower tier", name, m[k].name)
			}
		}
	}
}
