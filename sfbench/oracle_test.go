package main

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
)

// TestOracleNormalizeByHand checks the normalizer on windows worked out
// on paper.
func TestOracleNormalizeByHand(t *testing.T) {
	cases := []struct {
		raw  []int16
		want []int8
	}{
		// mean (416+2)/4 = 104, MAD (12+2)/4 = 3:
		// -128/3 = -42.7 → -43, -64/3 = -21.3 → -21, 0, 192/3 = 64.
		{[]int16{100, 102, 104, 110}, []int8{-43, -21, 0, 64}},
		// mean (1000+4)/8 = 125, MAD (1750+4)/8 = 219:
		// -4000/219 = -18.3 → -18, 28000/219 = 127.9 → clamped to 127.
		{[]int16{0, 0, 0, 0, 0, 0, 0, 1000}, []int8{-18, -18, -18, -18, -18, -18, -18, 127}},
		// A flat window has MAD 0, floored to 1.
		{[]int16{5, 5, 5}, []int8{0, 0, 0}},
	}
	for _, c := range cases {
		if got := oracleNormalize(c.raw); !slices.Equal(got, c.want) {
			t.Errorf("oracleNormalize(%v) = %v, want %v", c.raw, got, c.want)
		}
	}
}

// TestOracleSDTWByHand checks the recurrence on matrices filled in by
// hand at the paper's bonus 10, cap 10.
func TestOracleSDTWByHand(t *testing.T) {
	// Q = [0 10 20], R = [5 10 20 30]:
	//   row 0:  5  10  20  30   (runs 1 1 1 1)
	//   row 1: 10  -5  10  30   (column 1 takes diag 5-10)
	//   row 2: 25   0 -15  10   (column 2 takes diag -5-10)
	if c, e := oracleSDTW([]int8{0, 10, 20}, []int8{5, 10, 20, 30}, 10, 10); c != -15 || e != 2 {
		t.Errorf("cost, end = %d, %d; want -15, 2", c, e)
	}
	// Twelve equal samples against R = [7 7]: column 0 only climbs its
	// run, column 1 cashes it each row, so row i holds -10*min(i, 10).
	q := make([]int8, 12)
	for i := range q {
		q[i] = 7
	}
	if c, e := oracleSDTW(q, []int8{7, 7}, 10, 10); c != -100 || e != 1 {
		t.Errorf("capped run: cost, end = %d, %d; want -100, 1", c, e)
	}
	// Without the bonus the cost is the plain sum of distances along the
	// cheapest path, and ties take the earliest column.
	if c, e := oracleSDTW([]int8{1, 1}, []int8{0, 2}, 0, 0); c != 2 || e != 0 {
		t.Errorf("no bonus: cost, end = %d, %d; want 2, 0", c, e)
	}
}

// TestOracleReferenceByHand checks the reference of ACGTACG, whose
// reverse complement is CGTACGT: four 6-mer levels read from the model,
// normalized and quantized on the side.
func TestOracleReferenceByHand(t *testing.T) {
	m := pore.DefaultModel()
	level := func(kmer string) float64 {
		k := 0
		for _, b := range []byte(kmer) {
			k = k<<2 | strings.IndexByte("ACGT", b)
		}
		return m.Level(pore.Kmer(k))
	}
	levels := []float64{level("ACGTAC"), level("CGTACG"), level("CGTACG"), level("GTACGT")}
	mean := (levels[0] + levels[1] + levels[2] + levels[3]) / 4
	var mad float64
	for _, v := range levels {
		mad += math.Abs(v - mean)
	}
	mad /= 4
	want := make([]int8, len(levels))
	for i, v := range levels {
		z := math.Round(math.Max(-4, math.Min(4, (v-mean)/mad)) * 32)
		want[i] = int8(math.Max(-127, math.Min(127, z)))
	}
	if got := oracleReference(m, "ACGTACG"); !slices.Equal(got, want) {
		t.Errorf("oracleReference(ACGTACG) = %v, want %v", got, want)
	}
}

// TestOracleReferenceMatchesProgram checks that on a random genome the
// oracle's reference is the one the program builds, so a disagreement
// in the screen check points at the program rather than the oracle.
func TestOracleReferenceMatchesProgram(t *testing.T) {
	g := &genome.Genome{Name: "g", Seq: genome.Random(rand.New(rand.NewSource(7)), 3000)}
	m := pore.DefaultModel()
	if got, want := oracleReference(m, g.Seq.String()), m.BuildReference(g).Int8; !slices.Equal(got, want) {
		t.Errorf("oracle reference differs from pore.BuildReference")
	}
}
