// Command tpsbench is the TPS benchmark. It boots real TPS platforms in
// one process over the TCP transport on 127.0.0.1, drives one workload
// for a given time in whole rounds, checks every delivery against an
// independent regeneration of the events, and prints the run's metrics
// as one JSON object on the last line of standard output.
//
//	tpsbench --workload tcp_fanout --seed 1 --seconds 20 --trace 0
//	tpsbench steady --runs 10
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// traces every event and reports the per-layer metrics instead. See
// README.md for the workloads, metrics and reference figures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("tpsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: local_loopback, tcp_fanout or durable_catchup")
	seed := fs.Int64("seed", 1, "seed the events are made from")
	seconds := fs.Int("seconds", 10, "measure for this long, in whole rounds")
	trace := fs.Int("trace", 0, "1 traces every event and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "tpsbench: unknown workload %q\n", *name)
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpsbench:", err)
		return 1
	}
	scratch := os.Getenv("TPSBENCH_SCRATCH")
	if scratch == "" {
		scratch = ".bench_build"
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spec, scratch, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpsbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpsbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run measures w for d in whole rounds (at least one) and aggregates
// the rounds into the run's result, with the metrics spec lists. The
// rounds' files go to a fresh directory under scratchRoot, removed at
// the end. Informational lines — the run stamp, each round's figures,
// the catch-up account, the tail latency — go to out first.
func run(w workload, seed int64, d time.Duration, traced bool, spec benchSpec, scratchRoot string, out io.Writer) (result, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)
	scratch, err = filepath.Abs(scratch)
	if err != nil {
		return result{}, err
	}
	noteLen := noteLenFor(w.padTo)
	stamp(out, w, seed, noteLen, traced)

	events := make([]SkiRental, w.events())
	for i := range events {
		events[i] = genEvent(seed, uint64(i), noteLen)
	}
	deadline := time.Now().Add(d)
	var rounds []roundResult
	for len(rounds) == 0 || time.Now().Before(deadline) {
		rr, err := runRound(w, seed, noteLen, events, scratch, traced)
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", len(rounds), err)
		}
		if traced {
			micro, err := microLayers(events, scratch)
			if err != nil {
				return result{}, fmt.Errorf("round %d: layer timings: %w", len(rounds), err)
			}
			for k, v := range micro {
				rr.layers[k] = v
			}
		}
		m, _, _ := endToEnd([]roundResult{rr})
		fmt.Fprintf(out, "round %d: setup_s=%.4f throughput_eps=%.1f lat_p50_ms=%.4f lat_p90_ms=%.4f cpu_us_per_event=%.2f heap_live_mb=%.3f\n",
			len(rounds), m["setup_s"].Value, m["throughput_eps"].Value, m["lat_p50_ms"].Value,
			m["lat_p90_ms"].Value, m["cpu_us_per_event"].Value, m["heap_live_mb"].Value)
		if w.durable {
			fmt.Fprintf(out, "catchup: round %d: late joiner got %d of %d retained events, lost %d (F1); rendezvous tcpnet dropped %d frames\n",
				len(rounds), rr.caughtUp, len(events), rr.lost, rr.rdvDropped)
		}
		rounds = append(rounds, rr)
	}
	return aggregate(rounds, traced, spec, out)
}

// endToEnd pools the rounds into the run's end-to-end metrics: rate
// and CPU per event as the median slice of all throughput phases
// together (the pooled figures are kept under a _pooled name for the
// log), allocations per event over all throughput phases, latency
// percentiles over every latency-phase delivery, and the median round
// for set-up time and live heap. It also returns the p99 latency and
// the number of latency samples.
func endToEnd(rounds []roundResult) (map[string]metric, float64, int) {
	var events int
	var tputNS, cpuNS int64
	var mallocs uint64
	var lat, setup, heap, rate, cpu []float64
	for _, r := range rounds {
		for _, s := range r.slices {
			rate = append(rate, float64(s.events)/(float64(s.ns)/1e9))
			cpu = append(cpu, float64(s.cpuNS)/1e3/float64(s.events))
		}
		events += r.tputEvents
		tputNS += r.tputNS
		cpuNS += r.cpuNS
		mallocs += r.mallocs
		lat = append(lat, r.latMS...)
		setup = append(setup, r.setupS)
		heap = append(heap, r.heapMB)
	}
	sort.Float64s(lat)
	m := map[string]metric{
		"setup_s":                 {median(setup), "s"},
		"throughput_eps":          {median(rate), "1/s"},
		"throughput_eps_pooled":   {float64(events) / (float64(tputNS) / 1e9), "1/s"},
		"lat_p50_ms":              {percentileSorted(lat, 50), "ms"},
		"lat_p90_ms":              {percentileSorted(lat, 90), "ms"},
		"cpu_us_per_event":        {median(cpu), "us"},
		"cpu_us_per_event_pooled": {float64(cpuNS) / 1e3 / float64(events), "us"},
		"allocs_per_event":        {float64(mallocs) / float64(events), "count"},
		"heap_live_mb":            {median(heap), "MB"},
	}
	return m, percentileSorted(lat, 99), len(lat)
}

// aggregate sums the rounds' operations and reports the end-to-end
// metrics spec lists or, when traced, its per-layer metrics, each the
// median round. The latency tail goes to out only.
func aggregate(rounds []roundResult, traced bool, spec benchSpec, out io.Writer) (result, error) {
	res := result{Correct: true}
	nslices := 0
	for _, r := range rounds {
		nslices += len(r.slices)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.corrupt > 0 {
			res.Correct = false
		}
	}
	e2e, p99, samples := endToEnd(rounds)
	fmt.Fprintf(out, "rounds: %d; throughput slices: %d; latency samples: %d; lat_p90_ms: %.4f; lat_p99_ms: %.4f; pooled throughput_eps: %.1f; pooled cpu_us_per_event: %.2f\n",
		len(rounds), nslices, samples, e2e["lat_p90_ms"].Value, p99,
		e2e["throughput_eps_pooled"].Value, e2e["cpu_us_per_event_pooled"].Value)
	if !traced {
		res.Metrics = make(map[string]metric, len(spec.EndToEnd))
		for _, e := range spec.EndToEnd {
			m, ok := e2e[e.Name]
			if !ok {
				return result{}, fmt.Errorf("end-to-end metric %s is not measured", e.Name)
			}
			res.Metrics[e.Name] = m
		}
		return res, nil
	}
	// The traced run's end-to-end figures, for the tracing overhead.
	keys := make([]string, 0, len(e2e))
	for k := range e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4f", k, e2e[k].Value)
	}
	fmt.Fprintf(out, "traced end-to-end:%s\n", b.String())
	res.Metrics = make(map[string]metric, len(spec.PerLayer))
	for _, l := range spec.PerLayer {
		vals := make([]float64, 0, len(rounds))
		for _, r := range rounds {
			v, ok := r.layers[l.Name]
			if !ok {
				return result{}, fmt.Errorf("per-layer metric %s is not measured", l.Name)
			}
			vals = append(vals, v)
		}
		res.Metrics[l.Name] = metric{median(vals), l.Unit}
	}
	return res, nil
}

// stamp prints what a run's figures depend on: the machine, the
// toolchain, the seed and the size of every phase.
func stamp(out io.Writer, w workload, seed int64, noteLen int, traced bool) {
	s := map[string]any{
		"workload":        w.name,
		"cpu":             cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"seed":            seed,
		"traced":          traced,
		"warmup_events":   w.warm,
		"tput_events":     w.tput,
		"latency_events":  w.lat,
		"window":          w.window,
		"subscribers":     max(w.subs, 1),
		"event_pad_bytes": w.padTo,
		"note_len":        noteLen,
		"find_timeout_s":  2.0,
		"find_interval_s": 1.0,
	}
	if w.durable {
		s["catchup_events"] = w.events()
		s["log_sync"] = "none"
	}
	line, _ := json.Marshal(s)
	fmt.Fprintf(out, "stamp: %s\n", line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
