package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	sf "squigglefilter"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/squiggle"
)

// chunkSamples is one sequencer delivery: ~0.1 s of signal at ~4 kHz.
const chunkSamples = 400

// Input sizes. The screen target is SARS-CoV-2-scale (~30 kb, ~60k
// reference samples on both strands); the cascade panel is the
// 1,000-target, 800-base panel of BenchmarkCascade1000.
const (
	screenGenomeBases = 30000
	screenReadBases   = 500 // ≥ 2,500 samples even at half the nominal rate
	screenPoolPerSide = 16
	hostGenomeBases   = 200000

	panelTargets     = 1000
	panelTargetBases = 800
	panelPresent     = 4
	panelReadsPerHit = 4
	panelReadBases   = 750
	// Every cascade pool holds two short reads, at fixed positions (one
	// target read, one host read), cut to end before the 6,000-sample
	// coarse prefix: the sequencer lost the molecule. Such a read is
	// decided by Finalize, and in a batch its end flushes a partial
	// group, so the other lanes wait for a straggler flush. Every other
	// read is drawn at least prefix-long. A seed-drawn share of short
	// reads moved decision_p50_ms by 30 % between seeds on
	// cascade-1k-batch; a fixed share keeps that path the same size in
	// every run.
	panelShortSamples = 5000
	panelReadMin      = 6000
	batchLanes        = 4
	// A set-up sample times enough consecutive builds to last about half
	// a second (one screen build takes ~4 ms, one panel ~0.28 s), and
	// setup_s is the median of setupSamples samples.
	screenSetupBuilds = 128
	panelSetupBuilds  = 2
	setupSamples      = 7
)

// panelShort are the pool positions of the short cascade reads: pool
// entries alternate target (even) and host (odd) reads.
var panelShort = []int{7, 22}

// inputs are a workload's generated reads: source is the index of the
// target a read was simulated from (0 on screen), or -1 for a host read.
type inputs struct {
	reads  [][]int16
	source []int
	// targets holds the genomes the classifier is built from.
	targets []*genome.Genome
	cfgs    []sf.DetectorConfig
}

// makeScreenInputs simulates an even, interleaved mix of target and host
// reads against one random SARS-CoV-2-scale target.
func makeScreenInputs(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	target := &genome.Genome{Name: "screen-target", Seq: genome.Random(rng, screenGenomeBases)}
	host := &genome.Genome{Name: "host", Seq: genome.Random(rng, hostGenomeBases)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), seed)
	if err != nil {
		return nil, err
	}
	ts, hs := sim.FixedLengthPair(target, host, screenPoolPerSide, screenReadBases, screenReadBases)
	in := &inputs{
		targets: []*genome.Genome{target},
		cfgs:    []sf.DetectorConfig{{Name: target.Name, Sequence: target.Seq.String()}},
	}
	for i := range ts {
		in.reads = append(in.reads, ts[i].Samples, hs[i].Samples)
		in.source = append(in.source, 0, -1)
	}
	return in, nil
}

// makePanelInputs builds the 1,000-target panel and reads from four
// present targets, interleaved with as many host reads. A simulated read
// shorter than panelReadMin samples (one in twenty: the sequencer ran
// fast) is drawn again; the reads at panelShort are then cut to
// panelShortSamples.
func makePanelInputs(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < panelTargets; i++ {
		g := &genome.Genome{Name: fmt.Sprintf("target-%03d", i), Seq: genome.Random(rng, panelTargetBases)}
		in.targets = append(in.targets, g)
		in.cfgs = append(in.cfgs, sf.DetectorConfig{Name: g.Name, Sequence: g.Seq.String()})
	}
	host := &genome.Genome{Name: "host", Seq: genome.Random(rng, hostGenomeBases)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), seed)
	if err != nil {
		return nil, err
	}
	draw := func(g *genome.Genome) []int16 {
		for {
			r := sim.ReadFrom(g, rng.Intn(g.Len()-panelReadBases), panelReadBases, rng.Intn(2) == 1)
			if len(r.Samples) >= panelReadMin {
				return r.Samples
			}
		}
	}
	present := rng.Perm(panelTargets)[:panelPresent]
	for k := 0; k < panelPresent*panelReadsPerHit; k++ {
		src := present[k/panelReadsPerHit]
		in.reads = append(in.reads, draw(in.targets[src]), draw(host))
		in.source = append(in.source, src, -1)
	}
	for _, p := range panelShort {
		in.reads[p] = in.reads[p][:panelShortSamples]
	}
	return in, nil
}

// outcome is what a decided read reported, as the public API exposes it.
type outcome struct {
	verdict sf.Verdict // screen
	// On the cascades: the attributed target (-1 for none), whether the
	// panel was still undecided, the coarse survivors and their verdicts
	// in survivor order (every other target is a coarse-tier Reject), and
	// the session's work counters.
	best                                   int
	undecided                              bool
	survivors                              []int
	survivorVerdicts                       []sf.Verdict
	dpCells, coarseCells, scorings, pruned int64
}

// session is one read in flight through the classifier under test.
type session interface {
	feed(chunk []int16)
	finalize()
	decided() bool
	outcome() outcome
}

type screenSession struct{ s *sf.Session }

func (s screenSession) feed(c []int16)   { s.s.Feed(c) }
func (s screenSession) finalize()        { s.s.Finalize() }
func (s screenSession) decided() bool    { return s.s.Decided() }
func (s screenSession) outcome() outcome { return outcome{verdict: s.s.Finalize()} }

type cascadeSession struct{ s *sf.CascadeSession }

func (s cascadeSession) feed(c []int16) { s.s.Feed(c) }
func (s cascadeSession) finalize()      { s.s.Finalize() }
func (s cascadeSession) decided() bool  { return s.s.Decided() }
func (s cascadeSession) outcome() outcome {
	return cascadeOutcome(s.s, s.s.Finalize()) // Finalize is idempotent once decided
}

func cascadeOutcome(s *sf.CascadeSession, v sf.PanelVerdict) outcome {
	o := outcome{
		best:        v.Best,
		undecided:   v.Undecided,
		survivors:   s.Survivors(),
		dpCells:     s.DPCells(),
		coarseCells: s.CoarseDPCells(),
		scorings:    s.CoarseScorings(),
		pruned:      s.CoarsePruned(),
	}
	for _, t := range o.survivors {
		o.survivorVerdicts = append(o.survivorVerdicts, v.Verdicts[t])
	}
	return o
}

// system is a built classifier as the channels drive it.
type system struct {
	// prefix is the raw samples a read needs before it can be decided:
	// the stage on screen, the coarse prefix on the cascades.
	prefix int
	// lanes is how many reads one channel keeps in flight.
	lanes int
	// open starts a read on channel ch.
	open func(ch int) (session, error)
	// flush promotes channel ch's pending reads; nil where reads never
	// wait for a group.
	flush func(ch int) error
	close func()
	// Exactly one of these is set.
	det *sf.Detector
	cp  *sf.CascadePanel
}

// workload is one benchmark workload: its inputs, how its classifier is
// built, and why it is in the benchmark.
type workload struct {
	name, why string
	inputs    func(seed int64) (*inputs, error)
	// build constructs the classifier from reference strings.
	build func(in *inputs) (*system, error)
	// buildsPerSample is how many builds one set-up sample times.
	buildsPerSample int
}

var workloads = []workload{
	{
		name:            "screen",
		why:             "one 30 kb target at the default detector: the exact sDTW kernel does nearly all the work, so kernel, Session and scheduler changes show",
		inputs:          makeScreenInputs,
		build:           buildScreen,
		buildsPerSample: screenSetupBuilds,
	},
	{
		name:            "cascade-1k",
		why:             "1,000 800-base targets through per-read CascadeSessions: coarse tier and exact tier split the cells, so pruning, dispatch and survivor changes show",
		inputs:          makePanelInputs,
		build:           func(in *inputs) (*system, error) { return buildCascade(in, false) },
		buildsPerSample: panelSetupBuilds,
	},
	{
		name:            "cascade-1k-batch",
		why:             "the same panel and reads through 4-lane CascadeBatch groups: the second coarse pass machine, its interleaved kernel and the wait for a group to fill",
		inputs:          makePanelInputs,
		build:           func(in *inputs) (*system, error) { return buildCascade(in, true) },
		buildsPerSample: panelSetupBuilds,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func buildScreen(in *inputs) (*system, error) {
	det, err := sf.NewDetector(in.cfgs[0])
	if err != nil {
		return nil, err
	}
	return &system{
		prefix: 2000, // the default single stage
		lanes:  1,
		open:   func(int) (session, error) { return screenSession{det.NewSession()}, nil },
		close:  func() {},
		det:    det,
	}, nil
}

func buildCascade(in *inputs, batched bool) (*system, error) {
	cp, err := sf.NewCascadePanel(in.cfgs, sf.CascadeConfig{})
	if err != nil {
		return nil, err
	}
	sys := &system{prefix: cp.Config().CoarsePrefix, lanes: 1, close: cp.Close, cp: cp}
	if !batched {
		sys.open = func(int) (session, error) {
			s, err := cp.NewSession(sf.PrunePolicy{})
			return cascadeSession{s}, err
		}
		return sys, nil
	}
	groups := make([]*sf.CascadeBatch, runtime.NumCPU())
	for i := range groups {
		if groups[i], err = cp.NewBatch(batchLanes); err != nil {
			cp.Close()
			return nil, err
		}
	}
	sys.lanes = batchLanes
	sys.open = func(ch int) (session, error) {
		s, err := groups[ch].NewSession(sf.PrunePolicy{})
		return cascadeSession{s}, err
	}
	sys.flush = func(ch int) error { return groups[ch].Flush() }
	return sys, nil
}

// setUp times setupSamples samples of the workload's set-up and returns
// the last build with the median per-build time. A sample times
// buildsPerSample consecutive builds after a garbage collection, so a
// build too short to time alone is timed over several.
func setUp(w workload, in *inputs) (*system, time.Duration, error) {
	var sys *system
	times := make([]time.Duration, 0, setupSamples)
	for s := 0; s < setupSamples; s++ {
		runtime.GC()
		start := time.Now()
		for b := 0; b < w.buildsPerSample; b++ {
			if sys != nil {
				sys.close()
			}
			var err error
			if sys, err = w.build(in); err != nil {
				return nil, 0, fmt.Errorf("%s: build: %w", w.name, err)
			}
		}
		times = append(times, time.Since(start)/time.Duration(w.buildsPerSample))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	fmt.Printf("set-up: %d samples of %d builds, per build %.2f [%.2f–%.2f] ms\n", setupSamples, w.buildsPerSample,
		ms(times[len(times)/2]), ms(times[0]), ms(times[len(times)-1]))
	return sys, times[len(times)/2], nil
}
