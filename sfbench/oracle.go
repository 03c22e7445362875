package main

import "squigglefilter/internal/pore"

// An oracle for the screen workload's verdicts, written from the
// recurrence and normalization rules of DESIGN.md §1–2 and the paper
// (Sections 4.2, 4.7, 5.3) without calling internal/normalize or
// internal/sdtw. It is deliberately plain: one pass per query sample
// over every reference column, no blocking, no saturation, no shards.
// Its reference is built here too, from the pore model's 6-mer levels,
// so neither side of an alignment passes through the code under test.

// oracleScale is the fixed-point scale of a normalized sample: one mean
// absolute deviation maps to 32 codes, so ±127 spans just under ±4 MAD.
const oracleScale = 32

// divRound divides with rounding half away from zero (d > 0).
func divRound(num, d int64) int64 {
	if num >= 0 {
		return (num + d/2) / d
	}
	return (num - d/2) / d
}

// oracleNormalize maps raw ADC codes to 8-bit fixed point: integer mean
// and mean absolute deviation (each a sum divided with rounding, the MAD
// floored at 1), then (x-mean)*32/MAD rounded half away from zero and
// clamped to [-127, 127].
func oracleNormalize(raw []int16) []int8 {
	out := make([]int8, len(raw))
	if len(raw) == 0 {
		return out
	}
	n := int64(len(raw))
	var sum int64
	for _, v := range raw {
		sum += int64(v)
	}
	mean := (sum + n/2) / n
	var dev int64
	for _, v := range raw {
		d := int64(v) - mean
		if d < 0 {
			d = -d
		}
		dev += d
	}
	mad := (dev + n/2) / n
	if mad < 1 {
		mad = 1
	}
	for i, v := range raw {
		q := divRound((int64(v)-mean)*oracleScale, mad)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		out[i] = int8(q)
	}
	return out
}

// oracleReference builds a target's 8-bit reference from the pore
// model: the 6-mer level at every position of the forward strand, then
// of the reverse complement, normalized together by their float mean
// and mean absolute deviation (z clamped to ±4), then scaled by 32,
// rounded half away from zero and clamped to [-127, 127].
func oracleReference(m *pore.Model, seq string) []int8 {
	code := map[byte]int{'A': 0, 'C': 1, 'G': 2, 'T': 3}
	rc := make([]byte, len(seq))
	for i := range len(seq) {
		rc[len(seq)-1-i] = "TGCA"[code[seq[i]]]
	}
	var levels []float64
	for _, strand := range []string{seq, string(rc)} {
		for i := 0; i+pore.K <= len(strand); i++ {
			k := 0
			for j := i; j < i+pore.K; j++ {
				k = k<<2 | code[strand[j]]
			}
			levels = append(levels, m.Level(pore.Kmer(k)))
		}
	}
	out := make([]int8, len(levels))
	if len(levels) == 0 {
		return out
	}
	var sum float64
	for _, v := range levels {
		sum += v
	}
	mean := sum / float64(len(levels))
	var dev float64
	for _, v := range levels {
		if v > mean {
			dev += v - mean
		} else {
			dev += mean - v
		}
	}
	mad := dev / float64(len(levels))
	if mad == 0 {
		mad = 1
	}
	for i, v := range levels {
		z := min(max((v-mean)/mad, -4), 4) * oracleScale
		var q int64
		if z >= 0 {
			q = int64(z + 0.5)
		} else {
			q = int64(z - 0.5)
		}
		out[i] = int8(min(max(q, -127), 127))
	}
	return out
}

// oracleSDTW aligns query anywhere inside ref (free start and end) with
// the hardware recurrence, no reference deletions:
//
//	S[i][j] = |Q[i]-R[j]| + min(S[i-1][j-1] - bonus*run[i-1][j-1], S[i-1][j])
//
// The row above the first query sample is all zeros with zero runs.
// Ties take the diagonal, which restarts the run at 1; the vertical step
// extends the run, capped at bonusCap. Column 0 has no diagonal
// predecessor. It returns the minimum of the last row and the earliest
// column holding it.
func oracleSDTW(query, ref []int8, bonus, bonusCap int32) (cost int32, end int) {
	m := len(ref)
	prevCost, prevRun := make([]int32, m), make([]int32, m)
	curCost, curRun := make([]int32, m), make([]int32, m)
	for _, q := range query {
		for j := 0; j < m; j++ {
			d := int32(q) - int32(ref[j])
			if d < 0 {
				d = -d
			}
			upRun := prevRun[j] + 1
			if upRun > bonusCap {
				upRun = bonusCap
			}
			best, run := prevCost[j], upRun
			if j > 0 {
				if diag := prevCost[j-1] - bonus*prevRun[j-1]; diag <= best {
					best, run = diag, 1
					if bonusCap == 0 {
						run = 0
					}
				}
			}
			curCost[j], curRun[j] = d+best, run
		}
		prevCost, curCost = curCost, prevCost
		prevRun, curRun = curRun, prevRun
	}
	end = -1
	for j, c := range prevCost {
		if end < 0 || c < cost {
			cost, end = c, j
		}
	}
	return cost, end
}
