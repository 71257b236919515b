package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the run
// length, the workloads, and the metrics with their units and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specFile is BENCHMARK.json, read from the checkout root, where the
// benchmark runs.
const specFile = "BENCHMARK.json"

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runSet is one set of runs of one workload: every metric's values and
// each run's failed share.
type runSet struct {
	values map[string][]float64
	shares []share // per run
}

// steadyMain runs each workload of the spec repeatedly for the spec's
// run_seconds, each run with its own seed, and prints per end-to-end
// metric the median, the quartiles and the spread next to the metric's
// bound. With --sets 2 it runs a
// second set on fresh seeds and prints how far each median moved. It
// exits 1 when a spread (set-up time excepted) exceeds a third of its
// bound, a median moved by more than its bound, or the failed share
// differs between runs.
func steadyMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("tpsbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload and set")
	sets := fs.Int("sets", 1, "sets of runs; the second is compared with the first")
	seed := fs.Int64("seed", 1, "seed of the first run; each later run takes the next")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	seconds := spec.RunSeconds
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	ok := true
	next := *seed
	for _, wl := range spec.Workloads {
		name := wl.Name
		var done []runSet
		for s := 0; s < *sets; s++ {
			set := runSet{values: map[string][]float64{}}
			for i := 0; i < *runs; i++ {
				res, err := runOnce(exe, name, next, seconds)
				next++
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", name, next-1, err)
					return 1
				}
				for k, m := range res.Metrics {
					set.values[k] = append(set.values[k], m.Value)
				}
				set.shares = append(set.shares, share{res.Failed, res.Attempted})
			}
			fmt.Fprintf(out, "== %s, set %d: %d runs of %ds, failed/attempted per run: %v\n",
				name, s+1, *runs, seconds, set.shares)
			fmt.Fprintf(out, "%-18s %12s %12s %12s %8s %7s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "")
			for _, e := range spec.EndToEnd {
				vals := set.values[e.Name]
				if len(vals) < 2 {
					continue
				}
				q1, q3 := quartiles(vals)
				sp := spread(vals)
				verdict := "ok"
				if e.Name != "setup_s" && sp > e.Bound/3 {
					verdict = "WIDE (> bound/3)"
					ok = false
				}
				fmt.Fprintf(out, "%-18s %12.4f %12.4f %12.4f %7.2f%% %6.0f%% %s\n",
					e.Name, median(vals), q1, q3, 100*sp, 100*e.Bound, verdict)
			}
			if !sameShare(set.shares) {
				fmt.Fprintln(out, "failed share differs between runs")
				ok = false
			}
			done = append(done, set)
		}
		if len(done) == 2 {
			fmt.Fprintf(out, "== %s, set 2 against set 1\n", name)
			for _, e := range spec.EndToEnd {
				a, b := median(done[0].values[e.Name]), median(done[1].values[e.Name])
				shift := (b - a) / a
				verdict := "ok"
				if shift > e.Bound || -shift > e.Bound {
					verdict = "MOVED (> bound)"
					ok = false
				}
				fmt.Fprintf(out, "%-18s %12.4f -> %12.4f %+7.2f%% (bound %.0f%%) %s\n", e.Name, a, b, 100*shift, 100*e.Bound, verdict)
			}
			if !sameShare(append(done[0].shares, done[1].shares...)) {
				fmt.Fprintln(out, "failed share differs between the sets")
				ok = false
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs the benchmark as a child process and parses its last
// line.
func runOnce(exe, name string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("last line %q: %w", last, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("run reported incorrect output")
	}
	return res, nil
}

// share is one run's failed operations out of those it attempted.
type share struct{ failed, attempted int }

func (s share) String() string { return fmt.Sprintf("%d/%d", s.failed, s.attempted) }

// sameShare reports whether every run failed exactly the same fraction
// of its operations.
func sameShare(shares []share) bool {
	for _, s := range shares[1:] {
		if s.failed*shares[0].attempted != shares[0].failed*s.attempted {
			return false
		}
	}
	return true
}
