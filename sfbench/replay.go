package main

import (
	"fmt"
	"slices"
	"time"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/normalize"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// The replay: after a traced phase, every read it decided goes again
// through the exported functions of each layer the program ran on it,
// one timed call per layer, so the per-layer metrics are the same work
// the program did, measured one layer at a time.

// layerTimes is one read's replay.
type layerTimes struct {
	normalize, decimate, coarse, exact time.Duration
	exactCells, coarseCells            int64 // coarse cells unbounded
	decimated                          int64 // raw samples decimated
}

func (lt layerTimes) total() time.Duration {
	return lt.normalize + lt.decimate + lt.coarse + lt.exact
}

// replayer holds the references the layers run against: the exact
// reference of each target and, for the cascades, each target's
// decimated coarse reference.
//
// The public API exposes the cascade's decimation, top k, margin and
// prefix (CascadePanel.Config) but not three of its policies, so the
// replay pins them as the program has them: the dwell hypotheses are
// engine.DefaultQueryDwell and ±2 around it; a coarse reference is the
// float reference decimated and then quantized (NewCascadePanel); and a
// hypothesis keeps every target whose cost is at most the k-th smallest
// plus Margin per decimated sample. A change to any of them fails the
// replay's survivor check and must be carried into this file.
type replayer struct {
	pool    [][]int16
	prefix  int
	exact   [][]int8
	coarse  [][]int8
	factors []int
	topK    int
	margin  int64
	icfg    sdtw.IntConfig
}

func newReplayer(in *inputs, sys *system) *replayer {
	rp := &replayer{pool: in.reads, prefix: sys.prefix, icfg: sdtw.DefaultIntConfig()}
	model := pore.DefaultModel()
	refs := make([]*pore.Reference, len(in.targets))
	for i, g := range in.targets {
		refs[i] = model.BuildReference(g)
		rp.exact = append(rp.exact, refs[i].Int8)
	}
	if sys.cp == nil {
		return rp
	}
	cc := sys.cp.Config()
	rp.topK, rp.margin = cc.TopK, int64(cc.Margin)
	for _, r := range refs {
		rp.coarse = append(rp.coarse, normalize.QuantizeSlice(squiggle.Decimate(r.Float, cc.Decimation)))
	}
	for _, dw := range []int{engine.DefaultQueryDwell - 2, engine.DefaultQueryDwell, engine.DefaultQueryDwell + 2} {
		f := cc.Decimation * max(dw, 1)
		if len(rp.factors) == 0 || f != rp.factors[len(rp.factors)-1] {
			rp.factors = append(rp.factors, f)
		}
	}
	return rp
}

// replayScratch is one replay worker's reusable state.
type replayScratch struct {
	q      []int8
	eq     []int16
	cost   []int32
	run    []int32
	scorer *sdtw.CoarseScorer
	costs  [][]int32
	qlen   []int // decimated query length per hypothesis
	sel    []int32
}

// replayAll replays recs one after another, recording one "replay" span
// per read with one child span per layer call, and returns each read's
// layer times. The replay runs alone, so each layer's time is its own,
// not shared with the channels' contention for the CPUs. A read whose
// replay disagrees with what the program reported fails c.
func (rp *replayer) replayAll(recs []record, tr *tracer, c *checker) ([]layerTimes, error) {
	sc := &replayScratch{}
	if rp.coarse != nil {
		var err error
		if sc.scorer, err = sdtw.NewCoarseScorer(rp.coarse, rp.icfg); err != nil {
			return nil, err
		}
	}
	out := make([]layerTimes, len(recs))
	for i, r := range recs {
		var err error
		if out[i], err = rp.replay(r, sc, tr); err != nil {
			c.fail(r, "replay: %v", err)
		}
	}
	return out, nil
}

// timed runs fn as a child span of parent and returns its duration.
func timed(tr *tracer, name string, parent, read int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	tr.span(name, start, end, parent, read)
	return end.Sub(start)
}

func (rp *replayer) replay(rec record, sc *replayScratch, tr *tracer) (layerTimes, error) {
	var lt layerTimes
	raw := rp.pool[rec.read]
	root := tr.begin("replay", time.Now(), rec.id)
	defer func() { tr.end(root, time.Now()) }()

	// extend replays one exact-tier decision: the stage window the
	// session normalized, extended through the int32 kernel from a
	// fresh row against target t's reference.
	extend := func(t, used int, want int32) error {
		window := raw[:used]
		lt.normalize += timed(tr, "normalize", root, rec.id, func() { sc.q = normalize.ApplyInt8Into(sc.q, window) })
		ref := rp.exact[t]
		if cap(sc.cost) < len(ref) {
			sc.cost, sc.run = make([]int32, len(ref)), make([]int32, len(ref))
		}
		row := &sdtw.Row{Cost: sc.cost[:len(ref)], Run: sc.run[:len(ref)]}
		row.Reset()
		var r sdtw.IntResult
		lt.exact += timed(tr, "sdtw.exact", root, rec.id, func() { r = sdtw.Extend(row, sc.q, ref, rp.icfg) })
		lt.exactCells += int64(used) * int64(len(ref))
		if r.Cost != want {
			return fmt.Errorf("target %d exact cost %d on replay, %d in the verdict", t, r.Cost, want)
		}
		return nil
	}

	if rp.coarse == nil {
		v := rec.out.verdict
		return lt, extend(0, v.SamplesUsed, v.Cost)
	}

	prefix := raw[:min(len(raw), rp.prefix)]
	for len(sc.costs) < len(rp.factors) {
		sc.costs = append(sc.costs, make([]int32, len(rp.coarse)))
	}
	sc.qlen = sc.qlen[:0]
	for h, f := range rp.factors {
		lt.decimate += timed(tr, "squiggle.decimate", root, rec.id, func() { sc.eq = squiggle.DecimateInt16Into(sc.eq, prefix, f) })
		lt.decimated += int64(len(prefix))
		lt.normalize += timed(tr, "normalize", root, rec.id, func() { sc.q = normalize.ApplyInt8Into(sc.q, sc.eq) })
		costs := sc.costs[h]
		sc.qlen = append(sc.qlen, len(sc.q))
		lt.coarse += timed(tr, "sdtw.coarse", root, rec.id, func() {
			for i := range rp.coarse {
				costs[i] = sc.scorer.Score(sc.q, i).Cost
			}
		})
		for i := range rp.coarse {
			lt.coarseCells += int64(len(sc.q)) * int64(len(rp.coarse[i]))
		}
	}
	if surv := rp.survivors(sc); !slices.Equal(surv, rec.out.survivors) {
		return lt, fmt.Errorf("survivors %v on replay, %v from the session", surv, rec.out.survivors)
	}
	for j, t := range rec.out.survivors {
		v := rec.out.survivorVerdicts[j]
		if v.SamplesUsed == 0 {
			continue
		}
		if err := extend(t, v.SamplesUsed, v.Cost); err != nil {
			return lt, err
		}
	}
	if want := rec.out.dpCells - rec.out.coarseCells; lt.exactCells != want {
		return lt, fmt.Errorf("%d exact cells on replay, DPCells-CoarseDPCells = %d", lt.exactCells, want)
	}
	if lt.coarseCells < rec.out.coarseCells {
		return lt, fmt.Errorf("%d unbounded coarse cells on replay, below the session's %d", lt.coarseCells, rec.out.coarseCells)
	}
	return lt, nil
}

// survivors is the union over hypotheses of the targets whose coarse
// cost is at most the hypothesis's k-th smallest plus the margin: the
// cascade's survivor rule, from the unbounded costs.
func (rp *replayer) survivors(sc *replayScratch) []int {
	keep := make([]bool, len(rp.coarse))
	for h, costs := range sc.costs {
		sc.sel = append(sc.sel[:0], costs...)
		slices.Sort(sc.sel)
		cut := int64(sc.sel[min(rp.topK, len(sc.sel))-1]) + rp.margin*int64(sc.qlen[h])
		for i, c := range costs {
			if int64(c) <= cut {
				keep[i] = true
			}
		}
	}
	var out []int
	for i, k := range keep {
		if k {
			out = append(out, i)
		}
	}
	return out
}
