package main

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The helpers against values computed by hand (and, for the quartiles,
// by Python's statistics.quantiles(xs, n=4)).
func TestStatsHelpers(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		name      string
		got, want float64
	}{
		{"median odd", median([]float64{3, 1, 2}), 2},
		{"median even", median([]float64{4, 1, 3, 2}), 2.5},
		{"median one", median([]float64{7}), 7},
		{"p90 of 1..10", percentile(ten, 90), 9.1},
		{"p0 of 1..10", percentile(ten, 0), 1},
		{"p100 of 1..10", percentile(ten, 100), 10},
		{"p25 of 1..5", percentile([]float64{5, 1, 4, 2, 3}, 25), 2},
	}
	for _, c := range cases {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for _, q := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ten, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{0.5, 2.0, 7.25, 3.5, 1.0, 9.0, 4.0}, 1.0, 7.25},
	} {
		q1, q3 := quartiles(q.xs)
		if !near(q1, q.q1) || !near(q3, q.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", q.xs, q1, q3, q.q1, q.q3)
		}
	}
	if got := spread(ten); !near(got, 1.0) { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if !sameShare([]share{{1, 6701}, {3, 20103}}) || sameShare([]share{{1, 6701}, {1, 6702}}) {
		t.Error("sameShare must compare failed shares exactly")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	if ten[0] != 10 {
		t.Error("helpers must not reorder their input")
	}
}

func TestGeneratorIsAFunctionOfSeedAndSeq(t *testing.T) {
	a, b := genEvent(7, 42, 100), genEvent(7, 42, 100)
	if a != b {
		t.Fatalf("same (seed, seq) gave %+v and %+v", a, b)
	}
	if genEvent(8, 42, 100) == a {
		t.Fatal("another seed gave the same event")
	}
	if len(a.Note) != 100 || genEvent(7, 42, 0).Note != "" {
		t.Fatal("filler length not honoured")
	}
	if n := noteLenFor(1910); n < 1500 || n > 1910 {
		t.Fatalf("noteLenFor(1910) = %d", n)
	}
}

// The checker must flag every way a delivery can go wrong.
func TestCheckerFlagsDuplicateCorruptAndMissing(t *testing.T) {
	const seed, n = 3, 6
	rec := newRecorder(2, n, time.Now())
	for seq := 0; seq < n; seq++ {
		for sub := 0; sub < 2; sub++ {
			ev := genEvent(seed, uint64(seq), 0)
			switch {
			case seq == 1 && sub == 0: // missing
				continue
			case seq == 2 && sub == 1: // corrupted
				ev.Price += 0.5
			case seq == 4 && sub == 0: // duplicated
				rec.deliver(sub, ev)
			case seq == 5 && sub == 1: // still being recorded
				rec.count[sub][seq].Add(1)
				continue
			}
			rec.deliver(sub, ev)
		}
	}
	rec.deliver(1, genEvent(seed, n+3, 0))         // outside the round
	rec.deliver(0, genEvent(seed, probeBase+1, 0)) // set-up probe: ignored
	v := rec.check(seed, 0)
	if v.missing != 2 || v.wrong != 1 || v.duplicate != 1 || v.stray != 1 {
		t.Fatalf("verdict %+v, want two missing, one wrong, one duplicate, one stray", v)
	}
	if got := v.failedEvents(); got != 4 {
		t.Fatalf("failedEvents = %d, want 4", got)
	}
	for seq, bad := range v.bad {
		if bad != (seq == 1 || seq == 2 || seq == 4 || seq == 5) {
			t.Errorf("seq %d flagged %v", seq, bad)
		}
	}
	if v.clean() {
		t.Fatal("a verdict with faults reported clean")
	}

	// Exactly once and intact everywhere: nothing to report.
	ok := newRecorder(2, n, time.Now())
	for seq := 0; seq < n; seq++ {
		for sub := 0; sub < 2; sub++ {
			ok.deliver(sub, genEvent(seed, uint64(seq), 0))
		}
	}
	if v := ok.check(seed, 0); !v.clean() || v.failedEvents() != 0 {
		t.Fatalf("clean deliveries judged %+v", v)
	}
	if len(ok.done) != n {
		t.Fatalf("%d completions signalled, want %d", len(ok.done), n)
	}
}

// A check that runs while deliveries are still under way must never
// read a half-recorded copy: such an event counts as missing, never as
// wrong. Run with -race.
func TestCheckWhileDelivering(t *testing.T) {
	const seed, n, subs = 9, 2000, 2
	rec := newRecorder(subs, n, time.Now())
	var wg sync.WaitGroup
	for sub := 0; sub < subs; sub++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < n; seq++ {
				rec.deliver(sub, genEvent(seed, uint64(seq), 64))
			}
		}()
	}
	for len(rec.done) < n {
		if v := rec.check(seed, 64); v.wrong != 0 || v.duplicate != 0 {
			t.Fatalf("mid-delivery verdict %+v", v)
		}
	}
	wg.Wait()
	if v := rec.check(seed, 64); !v.clean() {
		t.Fatalf("settled verdict %+v", v)
	}
}

// scaled shrinks every phase by div, keeping a few events in each.
func (w workload) scaled(div int) workload {
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/div, 4)
	}
	w.warm, w.tput, w.lat = shrink(w.warm), shrink(w.tput), shrink(w.lat)
	return w
}

// A tiny run of each workload boots real platforms, passes its own
// checks and reports exactly the metrics BENCHMARK.json names, in its
// units. The durable workload's retained
// suffix is far below tcpnet's queue here, so its catch-up completes.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots platforms")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.scaled(100), traced
			var out bytes.Buffer
			res, err := run(w, 5, 0, traced, spec, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %+v\n%s", w.name, traced, res, out.String())
			}
			if !strings.Contains(out.String(), `"gomaxprocs"`) {
				t.Errorf("%s: no run stamp in %q", w.name, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, k := range want {
				m, ok := res.Metrics[k.Name]
				if !ok || math.IsNaN(m.Value) || m.Unit != k.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, spec unit %q", w.name, traced, k.Name, m, k.Unit)
				}
			}
			if w.durable && traced && res.Metrics["catchup_eps"].Value <= 0 {
				t.Errorf("%s: no catch-up measured", w.name)
			}
		}
	}
}

// One round's throughput phase is cut into tputSlices slices that
// together hold every event of the phase; a remainder joins the last.
func TestThroughputPhaseSlices(t *testing.T) {
	if testing.Short() {
		t.Skip("boots platforms")
	}
	w, _ := workloadByName("local_loopback")
	w = w.scaled(100)
	w.tput += 3
	noteLen := noteLenFor(w.padTo)
	events := make([]SkiRental, w.events())
	for i := range events {
		events[i] = genEvent(7, uint64(i), noteLen)
	}
	rr, err := runRound(w, 7, noteLen, events, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.slices) != tputSlices {
		t.Fatalf("%d slices, want %d", len(rr.slices), tputSlices)
	}
	total := 0
	for i, s := range rr.slices {
		if s.events < w.tput/tputSlices || s.ns <= 0 {
			t.Errorf("slice %d: %+v", i, s)
		}
		total += s.events
	}
	if total != w.tput {
		t.Errorf("slices hold %d events, want %d", total, w.tput)
	}
	if last := rr.slices[tputSlices-1].events; last != w.tput/tputSlices+3 {
		t.Errorf("last slice holds %d events, want %d", last, w.tput/tputSlices+3)
	}
}
