package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steadiness runs the named workload (each in turn for "all") n times
// as child processes of this binary, with seeds 1..n, and prints every end-to-end metric's median,
// quartiles and quartile spread as a share of the median — the figure
// each bound in endToEnd must stay three times above — plus the share of
// failed reads, which must be the same in every run.
func steadiness(n, seconds int, name string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if name != "all" && name != w.name {
			continue
		}
		values := map[string][]float64{}
		shares := map[string]bool{}
		for seed := 1; seed <= n; seed++ {
			var out bytes.Buffer
			if err := runChild(self, w.name, int64(seed), seconds, 0, &out); err != nil {
				return err
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			shares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			for _, l := range lines {
				if strings.HasPrefix(l, "host probe:") {
					fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, l)
				}
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, lines[len(lines)-1])
		}
		fmt.Printf("%s: %d runs of %d s, failed/attempted %v\n", w.name, n, seconds, keys(shares))
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range endToEnd {
			q1, med, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / med
			flag := ""
			if spread > m.Bound/3 {
				flag = "  over a third of the bound"
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", m.Name, q1, med, q3, spread, m.Bound, flag)
		}
	}
	return nil
}

// runAll runs every workload in turn, each in a process of its own so
// one workload's memory does not count against the next.
func runAll(seed int64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		if err := runChild(self, w.name, seed, seconds, trace, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sfbench:", err)
			failed = append(failed, w.name)
		}
	}
	if failed != nil {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runChild runs one workload in a child process of self, its standard
// output to stdout.
func runChild(self, workload string, seed int64, seconds, trace int, stdout io.Writer) error {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stdout = stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return nil
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quartiles returns the quartiles of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default, exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4, 1-based, clamped to the data.
		num := j * (n + 1)
		k, rem := num/4, num%4
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*float64(rem)/4
	}
	return at(1), at(2), at(3)
}
