package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"

	sf "squigglefilter"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/sdtw"
)

// Each workload's outputs are checked against a computation made apart
// from the path under test; no check reads a figure the benchmark times.

// Seeded subset sizes: the oracle is a plain full-matrix DP, so it
// checks a few screen reads; the sequential twin of a batched read costs
// about one read.
const (
	oracleReads = 2
	twinReads   = 2
)

// checker collects failures. A read fails once, however many of its
// checks fail; an aggregate check that fails marks the run incorrect.
type checker struct {
	workload string
	failed   map[int]bool
	wrong    bool
}

func (c *checker) fail(r record, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "CHECK FAILED %s read %d (pool %d): %s\n", c.workload, r.id, r.read, fmt.Sprintf(format, args...))
	c.failed[r.id] = true
}

func (c *checker) failRun(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "CHECK FAILED %s: %s\n", c.workload, fmt.Sprintf(format, args...))
	c.wrong = true
}

// subset picks up to n distinct pool indices that some record decided,
// seeded so every run of a seed checks the same reads.
func subset(recs []record, n int, seed int64) []int {
	var seen []int
	for _, r := range recs {
		if !slices.Contains(seen, r.read) {
			seen = append(seen, r.read)
		}
	}
	slices.Sort(seen)
	rand.New(rand.NewSource(seed)).Shuffle(len(seen), func(i, j int) { seen[i], seen[j] = seen[j], seen[i] })
	return seen[:min(n, len(seen))]
}

// checkConsistent fails every record whose outcome differs from the
// first decided instance of the same pool read: the program is
// deterministic, so a read's verdict may not depend on when it ran.
func checkConsistent(c *checker, recs []record, same func(a, b outcome) bool) {
	first := map[int]outcome{}
	for _, r := range recs {
		if o, ok := first[r.read]; !ok {
			first[r.read] = r.out
		} else if !same(o, r.out) {
			c.fail(r, "verdict differs from an earlier run of the same read")
		}
	}
}

func checkScreen(c *checker, in *inputs, recs []record, seed int64) {
	const stage = 2000
	threshold := int32(stage * sf.DefaultThresholdPerSample)
	checkConsistent(c, recs, func(a, b outcome) bool { return a.verdict == b.verdict })
	var acc, n [2]int // [host, target]
	for _, r := range recs {
		v := r.out.verdict
		if v.Decision != sf.Accept && v.Decision != sf.Reject {
			c.fail(r, "undecided")
			continue
		}
		if v.SamplesUsed != stage {
			c.fail(r, "decided after %d samples, stage is %d", v.SamplesUsed, stage)
		}
		k := 0
		if in.source[r.read] >= 0 {
			k = 1
		}
		n[k]++
		if v.Decision == sf.Accept {
			acc[k]++
		}
	}
	ref := oracleReference(pore.DefaultModel(), in.cfgs[0].Sequence)
	icfg := sdtw.DefaultIntConfig()
	for _, p := range subset(recs, oracleReads, seed) {
		q := oracleNormalize(in.reads[p][:stage])
		cost, _ := oracleSDTW(q, ref, icfg.MatchBonus, icfg.BonusCap)
		want := sf.Accept
		if cost > threshold {
			want = sf.Reject
		}
		for _, r := range recs {
			if r.read != p {
				continue
			}
			if v := r.out.verdict; v.Cost != cost || v.Decision != want {
				c.fail(r, "verdict %v at cost %d, oracle %v at cost %d", v.Decision, v.Cost, want, cost)
			}
		}
	}
	if n[0] == 0 || n[1] == 0 {
		c.failRun("no decided target or host read to compare")
		return
	}
	if t, h := float64(acc[1])/float64(n[1]), float64(acc[0])/float64(n[0]); t-h < 0.5 {
		c.failRun("target reads accepted at %.2f, host reads at %.2f", t, h)
	}
}

func checkCascade(c *checker, in *inputs, sys *system, recs []record, batched bool, seed int64) error {
	checkConsistent(c, recs, func(a, b outcome) bool {
		return a.best == b.best && slices.Equal(a.survivors, b.survivors) && slices.Equal(a.survivorVerdicts, b.survivorVerdicts)
	})
	// The bounded coarse pass races helpers on a shared cut, so its cell
	// count may differ between runs of one read while survivors may not.
	cells := map[int]int64{}
	var drift float64
	for _, r := range recs {
		if c0, ok := cells[r.read]; !ok {
			cells[r.read] = r.out.coarseCells
		} else if c0 > 0 {
			drift = max(drift, math.Abs(float64(r.out.coarseCells-c0))/float64(c0))
		}
	}
	fmt.Printf("coarse cells of repeated reads differ by at most %.2g (relative)\n", drift)
	// Single-target detectors, each built apart from the panel.
	dets := map[int]*sf.Detector{}
	accepts := func(t, read int) (bool, error) {
		d, ok := dets[t]
		if !ok {
			var err error
			if d, err = sf.NewDetector(in.cfgs[t]); err != nil {
				return false, err
			}
			dets[t] = d
		}
		return d.Classify(in.reads[read]).Decision == sf.Accept, nil
	}
	var missed []int
	for _, r := range recs {
		src, best := in.source[r.read], r.out.best
		if r.out.undecided {
			c.fail(r, "undecided")
			continue
		}
		if best >= 0 {
			if best != src {
				c.fail(r, "attributed to target %d, source %d", best, src)
				continue
			}
			ok, err := accepts(best, r.read)
			if err != nil {
				return err
			}
			if !ok {
				c.fail(r, "attributed to target %d, whose own detector rejects it", best)
			}
		} else if src >= 0 {
			ok, err := accepts(src, r.read)
			if err != nil {
				return err
			}
			switch {
			case ok && slices.Contains(r.out.survivors, src):
				c.fail(r, "source %d survived the coarse tier and its own detector accepts it, the exact tier attributes it to no target", src)
			case ok && !slices.Contains(missed, r.read):
				// The coarse tier dropped a source its own detector
				// accepts. Which reads this happens to depends on the
				// seed, so it is reported here rather than failed: a
				// failed share that varies with the seed cannot be
				// compared between sets of runs.
				missed = append(missed, r.read)
			}
		}
	}
	if len(missed) > 0 {
		slices.Sort(missed)
		fmt.Printf("coarse tier dropped the source its own detector accepts on pool reads %v\n", missed)
	}
	if !batched {
		return nil
	}
	// The sequential twin: the same read through an ungrouped session.
	for _, p := range subset(recs, twinReads, seed) {
		s, err := sys.cp.NewSession(sf.PrunePolicy{})
		if err != nil {
			return err
		}
		v, _ := s.Stream(in.reads[p], chunkSamples)
		twin := cascadeOutcome(s, v)
		for _, r := range recs {
			if r.read != p {
				continue
			}
			if !slices.Equal(r.out.survivors, twin.survivors) {
				c.fail(r, "batched survivors %v, sequential %v", r.out.survivors, twin.survivors)
			} else if r.out.best != twin.best || !slices.Equal(r.out.survivorVerdicts, twin.survivorVerdicts) {
				c.fail(r, "batched verdict (best %d) differs from the sequential session's (best %d)", r.out.best, twin.best)
			}
		}
	}
	return nil
}
