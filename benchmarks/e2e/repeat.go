package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repeatRuns measures how well the benchmark repeats on this machine: per
// workload it makes two interleaved sets (A,B,B,A,...) of n runs of this same
// binary, run i of either set with seed i+1, and prints per metric each
// set's median and quartile spread, the difference between the two medians
// and the metric's bound. The acceptance rule it checks is the one the
// benchmark is held to: every spread within a third of the bound, every
// difference within half of it.
func repeatRuns(n int, seconds float64, only, scratch string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("# How well the benchmark repeats\n\n")
	fmt.Printf("`-repeat %d -seconds %g`: two interleaved sets (A,B,B,A,...) of %d runs per workload, run i of a set with seed i+1.\n", n, seconds, n)
	fmt.Printf("spread = (Q3-Q1)/median over a set's runs, quartiles as Python's `statistics.quantiles(values, n=4)`; diff = how much worse B's median is than A's, as a share of A's.\n")
	fmt.Printf("A row passes when both spreads are within a third of the bound and the difference is within half of it.\n")
	allOK := true
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set := [4]int{0, 1, 1, 0}[i%4]
			seed := len(sets[set]["setup_s"]) + 1
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.Itoa(seed), "-seconds", fmt.Sprint(seconds), "-scratch", scratch)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", w.Name, seed, err, stderr.String())
			}
			rep, err := lastReport(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %v", w.Name, seed, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, rep.Failed, rep.Attempted)
			}
			for name, m := range rep.Metrics {
				sets[set][name] = append(sets[set][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "repeat: %s set %c seed %d:", w.Name, 'A'+set, seed)
			for _, def := range endToEnd {
				fmt.Fprintf(os.Stderr, " %.5g", rep.Metrics[def.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Printf("\n## %s\n\n", w.Name)
		fmt.Printf("| metric | unit | bound | A median | A spread | B median | B spread | diff | |\n|---|---|---|---|---|---|---|---|---|\n")
		for _, def := range endToEnd {
			a, b := sets[0][def.Name], sets[1][def.Name]
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			diff := (mb - ma) / ma
			if def.Better == "higher" {
				diff = -diff
			}
			ok := diff <= def.Bound/2 && (def.Name == "setup_s" || (sa <= def.Bound/3 && sb <= def.Bound/3))
			mark := "ok"
			if !ok {
				mark, allOK = "**over**", false
			}
			fmt.Printf("| `%s` | %s | %.3g | %.6g | %.4f | %.6g | %.4f | %+.4f | %s |\n",
				def.Name, def.Unit, def.Bound, ma, sa, mb, sb, diff, mark)
		}
	}
	if !allOK {
		return fmt.Errorf("some metric does not repeat within its bound")
	}
	return nil
}

// lastReport parses the last line of a run's standard output.
func lastReport(out []byte) (*report, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &rep, nil
}
