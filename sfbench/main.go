// Command sfbench is the repository's end-to-end benchmark: raw squiggle
// in, Read Until verdict out, on three workloads (screen, cascade-1k,
// cascade-1k-batch). One run builds a workload's classifier, drives it
// from one closed-loop channel per CPU for a fixed time, checks every
// verdict against a computation made apart from the path under test,
// and prints its metrics, ending with one JSON line. See README.md.
//
//	bash sfbench/run.sh --workload screen --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	sf "squigglefilter"
)

// runSeconds is the run length BENCHMARK.json asks for.
const runSeconds = 34

// warmUp runs before the timed window and is discarded: pools fill and
// the kernels' first-use calibration runs.
const warmUp = time.Second

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Every bound is the largest BENCHMARK.json allows: on the 2-CPU host
// the figures were taken on, sets of ten seeded runs spread by 2–25 %
// between quartiles (README.md, "Reference figures"), more than a third
// of any tighter bound.
var endToEnd = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"decision_p50_ms", "ms", "lower", 0.25},
	{"decision_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_read", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []perLayerSpec{
	{"normalize.us_per_read", "us", "lower"},
	{"squiggle.decimate_msamples_per_s", "Msamples/s", "higher"},
	{"sdtw.exact_cells_per_read", "count", "lower"},
	{"sdtw.exact_mcells_per_s", "Mcells/s", "higher"},
	{"sdtw.coarse_cells_per_read", "count", "lower"},
	{"sdtw.coarse_mcells_per_s", "Mcells/s", "higher"},
	{"engine.coarse_scorings_per_read", "count", "lower"},
	{"engine.coarse_pruned_frac", "frac", "higher"},
	{"engine.survivors_per_read", "count", "lower"},
	{"engine.staging_feed_us_p50", "us", "lower"},
	{"engine.deciding_feed_ms_p50", "ms", "lower"},
	{"engine.group_wait_ms_p50", "ms", "lower"},
	{"engine.unattributed_ms_per_read", "ms", "lower"},
	{"sched.tasks_per_read", "count", "lower"},
	{"sched.utilization", "frac", "higher"},
	{"sched.latency_share", "frac", "lower"},
	{"go.alloc_kb_per_read", "kB", "lower"},
	{"go.gc_per_100_reads", "count", "lower"},
	{"host.probe_mops", "Mops/s", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "all", "workload to run: screen, cascade-1k, cascade-1k-batch, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", runSeconds, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and reports the per-layer metrics")
	spec := flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	steady := flag.Int("steady", 0, "run the -workload this many times (each workload, for all) with seeds 1..N and print each metric's median and quartiles")
	flag.Parse()

	w, ok := findWorkload(*workloadName)
	if !ok && *workloadName != "all" {
		exitOn(fmt.Errorf("unknown workload %q", *workloadName))
	}
	switch {
	case *spec != "":
		exitOn(writeSpec(*spec))
	case *steady > 0:
		exitOn(steadiness(*steady, *seconds, *workloadName))
	case *workloadName == "all":
		exitOn(runAll(*seed, *seconds, *trace))
	default:
		res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		exitOn(err)
		line, err := json.Marshal(res)
		exitOn(err)
		fmt.Println(string(line))
		if !res.Correct || res.Failed > 0 {
			os.Exit(1)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfbench:", err)
		os.Exit(1)
	}
}

// run is one benchmark run of w.
func run(w workload, seed int64, window time.Duration, traced bool) (*result, error) {
	fp := hostFingerprint()
	fmt.Printf("host: %s, nproc %d, %s\n", fp.CPU, fp.NProc, fp.Go)
	probes := []float64{hostProbe()}
	in, err := w.inputs(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	sys, setup, err := setUp(w, in)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	var ids atomic.Int64
	if _, err := runPhase(sys, in.reads, warmUp, nil, &ids); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	ids.Store(0)
	// Return set-up's garbage to the system, so the resident set the
	// timed window samples is the classifier's own.
	debug.FreeOSMemory()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	c := &checker{workload: w.name, failed: map[int]bool{}}
	var phases []*phase
	measure := func(d time.Duration, tr *tracer) (*phase, error) {
		probes = append(probes, hostProbe())
		ph, err := runPhase(sys, in.reads, d, tr, &ids)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		probes = append(probes, hostProbe())
		phases = append(phases, ph)
		res.Attempted += ph.opened
		return ph, nil
	}
	if !traced {
		ph, err := measure(window, nil)
		if err != nil {
			return nil, err
		}
		lat := durations(ph.records, func(r record) time.Duration { return r.decision })
		n := float64(len(ph.records))
		res.put("setup_s", setup.Seconds())
		res.put("reads_per_s", n/ph.wall.Seconds())
		res.put("decision_p50_ms", ms(quantile(lat, 0.5)))
		res.put("decision_p90_ms", ms(quantile(lat, 0.9)))
		res.put("cpu_ms_per_read", ms(ph.cpu)/n)
		res.put("peak_rss_mb", ph.peakRSS)
		fmt.Printf("%s seed %d: %d reads decided in %.1f s by %d calls, %d beyond p90\n", w.name, seed, len(ph.records), ph.wall.Seconds(), len(ph.deciding), len(ph.records)-int(0.9*n))
	} else {
		// Three quarters untraced, for the allocation figures and the
		// overhead's baseline; one quarter traced, whose reads the replay
		// then runs again layer by layer.
		untraced, err := measure(window*3/4, nil)
		if err != nil {
			return nil, err
		}
		var sched0 sf.SchedStats
		if sys.det != nil {
			sched0 = sys.det.SchedStats()
		}
		tr := newTracer()
		ph, err := measure(window-window*3/4, tr)
		if err != nil {
			return nil, err
		}
		var sched1 sf.SchedStats
		if sys.det != nil {
			sched1 = sys.det.SchedStats()
		}
		if err := perLayerMetrics(res, c, w, seed, in, sys, untraced, ph, sched0, sched1, tr); err != nil {
			return nil, err
		}
	}
	fmt.Printf("host probe: %.0f Mops/s before the run, %.0f after\n", probes[0], probes[len(probes)-1])
	if traced {
		sort.Float64s(probes)
		res.put("host.probe_mops", probes[len(probes)/2])
	}

	var recs []record
	for _, ph := range phases {
		recs = append(recs, ph.records...)
	}
	switch {
	case sys.det != nil:
		checkScreen(c, in, recs, seed)
	default:
		if err := checkCascade(c, in, sys, recs, sys.flush != nil, seed); err != nil {
			return nil, fmt.Errorf("%s: check: %w", w.name, err)
		}
	}
	res.Failed = len(c.failed)
	res.Correct = !c.wrong
	fmt.Printf("%s: %d reads attempted, %d decided, %d failed a check\n", w.name, res.Attempted, len(recs), res.Failed)
	res.print()
	return res, nil
}

// put records a metric under the unit its table gives it.
func (r *result) put(name string, v float64) {
	for _, m := range endToEnd {
		if m.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: m.Unit}
			return
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("sfbench: metric " + name + " is in no table")
}

// print lists the run's metrics in table order.
func (r *result) print() {
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	for _, name := range names {
		if m, ok := r.Metrics[name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// perLayerMetrics fills the traced run's metrics: the replayed layer
// times of every read the traced phase decided, the program's own
// counters, the channel-side call timings, and the untraced phase's
// allocation figures.
func perLayerMetrics(res *result, c *checker, w workload, seed int64, in *inputs, sys *system, untraced, ph *phase, sched0, sched1 sf.SchedStats, tr *tracer) error {
	recs := ph.records
	n := float64(len(recs))
	lts, err := newReplayer(in, sys).replayAll(recs, tr, c)
	if err != nil {
		return fmt.Errorf("%s: replay: %w", w.name, err)
	}
	var sum layerTimes
	var norm []time.Duration
	var survivors, scorings, pruned, coarseCells float64
	for i, lt := range lts {
		norm = append(norm, lt.normalize)
		sum.normalize += lt.normalize
		sum.decimate += lt.decimate
		sum.coarse += lt.coarse
		sum.exact += lt.exact
		sum.exactCells += lt.exactCells
		sum.coarseCells += lt.coarseCells
		sum.decimated += lt.decimated
		o := recs[i].out
		survivors += float64(len(o.survivors))
		scorings += float64(o.scorings)
		pruned += float64(o.pruned)
		coarseCells += float64(o.coarseCells)
	}
	rate := func(count int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(count) / d.Seconds() / 1e6
	}
	res.put("normalize.us_per_read", us(quantile(norm, 0.5)))
	res.put("squiggle.decimate_msamples_per_s", rate(sum.decimated, sum.decimate))
	res.put("sdtw.exact_cells_per_read", float64(sum.exactCells)/n)
	res.put("sdtw.exact_mcells_per_s", rate(sum.exactCells, sum.exact))
	res.put("sdtw.coarse_cells_per_read", coarseCells/n)
	res.put("sdtw.coarse_mcells_per_s", rate(sum.coarseCells, sum.coarse))
	res.put("engine.coarse_scorings_per_read", scorings/n)
	prunedFrac := 0.0
	if scorings > 0 {
		prunedFrac = pruned / scorings
	}
	res.put("engine.coarse_pruned_frac", prunedFrac)
	res.put("engine.survivors_per_read", survivors/n)

	var decidingSum time.Duration
	for _, d := range ph.deciding {
		decidingSum += d
	}
	feedP50 := quantile(ph.deciding, 0.5)
	res.put("engine.staging_feed_us_p50", us(quantile(ph.staging, 0.5)))
	res.put("engine.deciding_feed_ms_p50", ms(feedP50))
	res.put("engine.group_wait_ms_p50", ms(quantile(durations(recs, func(r record) time.Duration { return r.wait }), 0.5)))
	res.put("engine.unattributed_ms_per_read", ms(decidingSum-sum.total())/n)

	var tasks, util, share float64
	if sys.det != nil {
		tasks = float64(sched1.Completed-sched0.Completed) / n
		util = sched1.Utilization
		share = sched1.LatencyP50.Seconds() / feedP50.Seconds()
	}
	res.put("sched.tasks_per_read", tasks)
	res.put("sched.utilization", util)
	res.put("sched.latency_share", share)

	un := float64(len(untraced.records))
	res.put("go.alloc_kb_per_read", float64(untraced.allocBytes)/1024/un)
	res.put("go.gc_per_100_reads", float64(untraced.numGC)*100/un)

	p50 := func(ph *phase) time.Duration {
		return quantile(durations(ph.records, func(r record) time.Duration { return r.decision }), 0.5)
	}
	res.put("trace.overhead_frac", p50(ph).Seconds()/p50(untraced).Seconds()-1)

	fmt.Printf("traced phase: %d reads, %d spans; self time by span name:\n", len(recs), len(tr.spans))
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-20s %10.1f ms/read\n", k, ms(self[k])/n)
	}
	path, err := tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfbench: spans not written:", err)
	} else {
		fmt.Printf("spans: %s\n", path)
	}
	return nil
}

func durations(recs []record, f func(record) time.Duration) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return time.Duration(float64(s[lo])*(1-frac) + float64(s[lo+1])*frac)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// writeSpec writes BENCHMARK.json from the tables above.
func writeSpec(path string) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []wl           `json:"workloads"`
		EndToEnd   []endToEndSpec `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "sfbench/run.sh"},
		Paths:      []string{"sfbench"},
		RunSeconds: runSeconds,
		Workloads:  wls,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
