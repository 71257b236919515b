package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/hist"
)

// workload is one set of inputs the benchmark runs. Every phase
// publishes a fixed number of events from one goroutine, closed loop:
// the next event goes out only when fewer than window are incomplete.
type workload struct {
	name string
	// subs is the number of subscriber platforms; 0 puts one
	// subscriber on the publishing platform itself.
	subs int
	// padTo is the gob-encoded event size to pad to; 0 leaves the
	// paper's four small fields alone.
	padTo int
	// warm, tput and lat are the events of the warm-up, throughput and
	// latency phases. lat 0 takes latency from the throughput phase,
	// which then runs with one event in flight.
	warm, tput, lat int
	// window bounds the events in flight in the warm-up and throughput
	// phases.
	window int
	// durable turns the rendezvous's event log on and adds the
	// late-joiner catch-up after the live phases.
	durable bool
}

// catchupQuiet ends a catch-up that stops short: once nothing has
// arrived for this long, the window closes at the last arrival plus
// this period.
const catchupQuiet = 300 * time.Millisecond

// catchupLimit ends a catch-up that keeps trickling in.
const catchupLimit = 60 * time.Second

// lateFindInterval is the late joiner's FindInterval.
const lateFindInterval = 100 * time.Millisecond

// tputSlices is how many slices each throughput phase is cut into; the
// run reports the median slice's rate and CPU per event, so a slow
// spell of the shared host that covers a few slices does not move it.
const tputSlices = 16

// stallLimit aborts a phase whose next completion takes this long: the
// events still in flight are then counted missing.
const stallLimit = 10 * time.Second

// The TCP workloads publish 23 200 events a round, ~59 MB of log at
// ~2.5 kB each on disk: within the rendezvous log's default 64 MiB
// retention, so the late joiner can be asked for every one.
var workloads = []workload{
	{
		name: "local_loopback",
		subs: 0, warm: 1000, tput: 120000, window: 1,
	},
	{
		name: "tcp_fanout",
		subs: 2, padTo: 1910, warm: 200, tput: 20000, lat: 3000, window: 16,
	},
	{
		name: "durable_catchup",
		subs: 2, padTo: 1910, warm: 200, tput: 20000, lat: 3000, window: 16, durable: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) events() int { return w.warm + w.tput + w.lat }

// roundResult is what one round — set-up, phases, catch-up, tear-down
// on a fresh set of platforms — measured.
type roundResult struct {
	setupS     float64
	tputEvents int
	tputNS     int64
	slices     []slice // the throughput phase, cut into tputSlices
	cpuNS      int64
	mallocs    uint64
	numGC      uint32
	wireBytes  int64
	latMS      []float64 // publish → callback per delivery, latency phase
	heapMB     float64
	goroutines int

	attempted, failed int
	corrupt           int // wrong or stray deliveries: the program's output is wrong
	// Catch-up (durable workloads): events delivered to the late
	// joiner, the ones it never got, and the rate.
	caughtUp, lost int
	catchupEPS     float64
	rdvDropped     int64

	layers map[string]float64 // traced rounds only
}

// cluster is one round's platforms: rdv (nil on local workloads), the
// subscribers, and the publisher, which is also the only subscriber on
// local workloads.
type cluster struct {
	plats   []*tps.Platform
	rdv     *tps.Platform
	pub     *tps.Interface[SkiRental]
	engines []*tps.Engine[SkiRental]
	probes  uint64 // set-up probes published
}

func (c *cluster) close() {
	for _, e := range c.engines {
		e.Close()
	}
	for i := len(c.plats) - 1; i >= 0; i-- {
		c.plats[i].Close()
	}
}

// subscribe gives p an engine and one subscription whose callback
// records into rec as subscriber idx.
func (c *cluster) subscribe(p *tps.Platform, rec *recorder, idx int) (*tps.Interface[SkiRental], error) {
	eng, err := tps.NewEngine[SkiRental](p)
	if err != nil {
		return nil, err
	}
	c.engines = append(c.engines, eng)
	intf, err := eng.NewInterface(nil)
	if err != nil {
		return nil, err
	}
	cb := tps.CallBackFunc[SkiRental](func(ev SkiRental) error {
		rec.deliver(idx, ev)
		return nil
	})
	return intf, intf.Subscribe(cb, nil)
}

func (c *cluster) platform(cfg tps.Config) (*tps.Platform, error) {
	cfg.ListenTCP = "127.0.0.1:0"
	p, err := tps.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	c.plats = append(c.plats, p)
	// A seeded peer's first discovery query only reaches the mesh once
	// it holds a lease; without one it waits a FindInterval tick.
	if len(cfg.Seeds) > 0 && !p.AwaitRendezvous(30*time.Second) {
		return nil, fmt.Errorf("%s: no rendezvous lease after 30s", cfg.Name)
	}
	return p, nil
}

// boot starts the round's platforms and subscriptions. It returns once
// every engine is attached; set-up ends later, at the first probe seen
// by every subscriber.
func boot(w workload, rec *recorder, logDir string, traceRate float64) (*cluster, error) {
	c := &cluster{}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	if w.subs == 0 {
		p, err := c.platform(tps.Config{Name: "solo", TraceRate: traceRate})
		if err != nil {
			return fail(err)
		}
		intf, err := c.subscribe(p, rec, 0)
		if err != nil {
			return fail(err)
		}
		c.pub = intf
		return c, nil
	}
	rdv, err := c.platform(tps.Config{Name: "rdv", Rendezvous: true, LogDir: logDir, TraceRate: traceRate})
	if err != nil {
		return fail(err)
	}
	c.rdv = rdv
	seeds := rdv.Addresses()[:1]
	for i := 0; i < w.subs; i++ {
		p, err := c.platform(tps.Config{Name: fmt.Sprintf("sub%d", i), Seeds: seeds, TraceRate: traceRate})
		if err != nil {
			return fail(err)
		}
		if _, err := c.subscribe(p, rec, i); err != nil {
			return fail(err)
		}
	}
	p, err := c.platform(tps.Config{Name: "pub", Seeds: seeds, TraceRate: traceRate})
	if err != nil {
		return fail(err)
	}
	eng, err := tps.NewEngine[SkiRental](p)
	if err != nil {
		return fail(err)
	}
	c.engines = append(c.engines, eng)
	if c.pub, err = eng.NewInterface(nil); err != nil {
		return fail(err)
	}
	if err := eng.Announce(); err != nil {
		return fail(err)
	}
	for _, e := range c.engines {
		if !e.AwaitReady(1, 30*time.Second) {
			return fail(errors.New("engines not attached after 30s"))
		}
	}
	return c, nil
}

// probe publishes set-up probes until every subscriber has one.
func (c *cluster) probe(rec *recorder, seed int64, noteLen int) error {
	deadline := time.Now().Add(30 * time.Second)
	for !rec.probed() {
		if time.Now().After(deadline) {
			return errors.New("set-up probes never reached every subscriber")
		}
		if err := c.pub.Publish(genEvent(seed, probeBase+c.probes, noteLen)); err != nil {
			return err
		}
		c.probes++
		for i := 0; i < 20 && !rec.probed(); i++ {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// slice is one stretch of a throughput phase: the events it completed,
// its wall time and the process CPU it took.
type slice struct {
	events    int
	ns, cpuNS int64
}

// phase publishes events [from, to) closed loop with at most window in
// flight and returns how long the phase took. With per > 0 it also
// cuts the phase into slices of per completed events (the rest joins
// the last one) and returns each slice's time and CPU. A stall longer
// than stallLimit ends it early; the checker then finds the missing
// events.
func (c *cluster) phase(rec *recorder, events []SkiRental, pubNS []int64, from, to, window, per int) (time.Duration, []slice) {
	timer := time.NewTimer(stallLimit)
	defer timer.Stop()
	var slices []slice
	start := time.Now()
	markAt, markCPU, marked := start, cpuNow(), 0
	cut := func(completed int) {
		now, cpu := time.Now(), cpuNow()
		slices = append(slices, slice{completed - marked, int64(now.Sub(markAt)), cpu - markCPU})
		markAt, markCPU, marked = now, cpu, completed
	}
	next, inflight, completed := from, 0, 0
	for completed < to-from {
		for next < to && inflight < window {
			pubNS[next] = rec.now()
			if err := c.pub.Publish(events[next]); err != nil {
				completed++ // never delivered; the checker counts it
			} else {
				inflight++
			}
			next++
		}
		if inflight == 0 {
			continue
		}
		timer.Reset(stallLimit)
		select {
		case seq := <-rec.done:
			if seq >= uint64(from) && seq < uint64(to) {
				completed++
				inflight--
				if per > 0 && completed%per == 0 && to-from-completed >= per {
					cut(completed)
				}
			}
		case <-timer.C:
			return time.Since(start), slices
		}
	}
	if per > 0 {
		cut(completed)
	}
	return time.Since(start), slices
}

// snapshot sums every platform's stats view, subsystem by subsystem.
func (c *cluster) snapshot() map[string]obs.Snapshot {
	return sumViews(c.plats)
}

// sumViews sums the stats views of plats, subsystem by subsystem.
func sumViews(plats []*tps.Platform) map[string]obs.Snapshot {
	bySub := make(map[string][]obs.Snapshot)
	for _, p := range plats {
		for _, s := range p.Stats().Subsystems {
			bySub[s.Name] = append(bySub[s.Name], s)
		}
	}
	out := make(map[string]obs.Snapshot, len(bySub))
	for name, snaps := range bySub {
		out[name] = obs.Merge(name, snaps...)
	}
	return out
}

func counterDelta(cur, prev map[string]obs.Snapshot, sub, key string) int64 {
	return cur[sub].Counters[key] - prev[sub].Counters[key]
}

func histDelta(cur, prev map[string]obs.Snapshot, sub, key string) hist.Snapshot {
	return hist.Delta(cur[sub].Hists[key], prev[sub].Hists[key])
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapAfterGC returns HeapAlloc after two forced collections: the
// second frees what the first left in sync.Pool victim caches, which
// otherwise made a round's heap jump by ~3 MB at random.
func heapAfterGC() (heap uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runRound runs one round of w on fresh platforms. events are the
// round's inputs, made from seed by genEvent; scratch is a directory
// the round may use for its event log.
func runRound(w workload, seed int64, noteLen int, events []SkiRental, scratch string, traced bool) (roundResult, error) {
	var res roundResult
	n := len(events)
	subs := max(w.subs, 1)
	rec := newRecorder(subs, n, time.Now())
	pubNS := make([]int64, n)
	heapBase := heapAfterGC()

	traceRate := 0.0
	if traced {
		traceRate = 1
	}
	logDir := ""
	if w.durable {
		logDir = filepath.Join(scratch, "rdvlog")
		if err := os.RemoveAll(logDir); err != nil {
			return res, err
		}
	}
	t0 := time.Now()
	c, err := boot(w, rec, logDir, traceRate)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	if err := c.probe(rec, seed, noteLen); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	res.setupS = time.Since(t0).Seconds()

	// Warm-up: pools, gob type machinery and connections.
	c.phase(rec, events, pubNS, 0, w.warm, w.window, 0)

	// Throughput phase: CPU, allocations and wire bytes per event.
	tputFrom, tputTo := w.warm, w.warm+w.tput
	window := w.window
	if w.lat == 0 {
		window = 1
	}
	var ms0, ms1 runtime.MemStats
	s0 := c.snapshot()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuNow()
	d, slices := c.phase(rec, events, pubNS, tputFrom, tputTo, window, max(w.tput/tputSlices, 1))
	cpu1 := cpuNow()
	runtime.ReadMemStats(&ms1)
	s1 := c.snapshot()
	res.tputEvents = w.tput
	res.tputNS = int64(d)
	res.slices = slices
	res.cpuNS = cpu1 - cpu0
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.numGC = ms1.NumGC - ms0.NumGC
	res.wireBytes = counterDelta(s1, s0, "endpoint", "bytes_out")

	// Latency phase: one event in flight.
	latFrom, latTo := tputTo, tputTo+w.lat
	if w.lat == 0 {
		latFrom, latTo = tputFrom, tputTo
	} else {
		c.phase(rec, events, pubNS, latFrom, latTo, 1, 0)
	}
	s2 := c.snapshot()
	res.latMS = make([]float64, 0, (latTo-latFrom)*subs)
	for seq := latFrom; seq < latTo; seq++ {
		for s := 0; s < subs; s++ {
			if at := rec.atNS[s][seq].Load(); at > 0 {
				res.latMS = append(res.latMS, float64(at-pubNS[seq])/1e6)
			}
		}
	}

	// Let stragglers and duplicates land before judging.
	settle(func() int64 {
		var t int64
		for s := range rec.got {
			t += rec.got[s].Load() + rec.probes[s].Load()
		}
		return t
	})
	v := rec.check(seed, noteLen)
	rec.release()
	res.attempted = n
	res.failed = v.failedEvents() + v.stray
	res.corrupt = v.wrong + v.stray
	if !v.clean() {
		fmt.Fprintf(os.Stderr, "check: %s round: %d missing, %d duplicate, %d wrong, %d stray deliveries\n",
			w.name, v.missing, v.duplicate, v.wrong, v.stray)
	}

	// The live heap of the running cluster. It is read before the
	// catch-up, whose late joiner retains however many events F1 let
	// through.
	res.heapMB = float64(int64(heapAfterGC())-int64(heapBase)) / 1e6
	res.goroutines = runtime.NumGoroutine()

	var late *lateJoiner
	if w.durable {
		res.attempted++ // the catch-up is one more operation
		late, err = c.catchUp(n)
		if err != nil {
			return res, fmt.Errorf("catch-up: %w", err)
		}
		lv := late.rec.check(seed, noteLen)
		res.caughtUp = int(late.rec.got[0].Load())
		res.lost = lv.missing
		res.catchupEPS = late.eps
		res.rdvDropped = c.rdv.Stats().Counter("tcpnet", "dropped")
		res.corrupt += lv.wrong + lv.stray
		if !lv.clean() {
			res.failed++
		}
	}

	if traced {
		plats := c.plats
		if late != nil {
			plats = append(plats[:len(plats):len(plats)], late.p)
		}
		res.layers = layerMetrics(w, res, s0, s1, s2, sumViews(plats))
	}
	if late != nil {
		late.close()
	}
	return res, nil
}

// settle waits until total stops changing for 50ms (at most 2s).
func settle(total func() int64) {
	last := total()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur := total()
		if cur == last {
			return
		}
		last = cur
	}
}

// lateJoiner is the subscriber that arrives after every event was
// published and must catch up from the rendezvous's log.
type lateJoiner struct {
	p   *tps.Platform
	eng *tps.Engine[SkiRental]
	rec *recorder
	eps float64
}

func (l *lateJoiner) close() {
	l.eng.Close()
	l.p.Close()
}

// catchUp waits until the rendezvous's log retains all n events and
// the probes, then starts a late subscriber and times its catch-up.
// The window opens at the first replayed event and closes at the last
// one; when some never arrive, catchupQuiet later. The late joiner's
// engine is closed and its deliveries settled when catchUp returns, so
// its recorder can be checked.
func (c *cluster) catchUp(n int) (*lateJoiner, error) {
	want := uint64(n) + c.probes
	deadline := time.Now().Add(10 * time.Second)
	for {
		retained := false
		for _, t := range c.rdv.Inspect().EventLog {
			if t.LastSeq >= want {
				// The late joiner is checked against every event, so
				// retention must not have trimmed any.
				if t.FirstSeq > 1 {
					return nil, fmt.Errorf("rendezvous log retains seqs %d-%d of %d: the round outgrew the log's retention", t.FirstSeq, t.LastSeq, want)
				}
				retained = true
			}
		}
		if retained {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rendezvous log never retained %d events", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := newRecorder(1, n, time.Now())
	// The engine asks for a replay on its next reconciliation tick, one
	// FindInterval after it attaches; a short interval keeps that wait
	// out of the round. The window opens at the first replayed event.
	p, err := tps.NewPlatform(tps.Config{
		Name:         "late",
		ListenTCP:    "127.0.0.1:0",
		Seeds:        c.rdv.Addresses()[:1],
		FindInterval: lateFindInterval,
	})
	if err != nil {
		return nil, err
	}
	l := &lateJoiner{p: p, rec: rec}
	l.eng, err = tps.NewEngine[SkiRental](p)
	if err != nil {
		p.Close()
		return nil, err
	}
	intf, err := l.eng.NewInterface(nil)
	if err == nil {
		err = intf.Subscribe(tps.CallBackFunc[SkiRental](func(ev SkiRental) error {
			if ev.Seq < probeBase {
				rec.firstNS.CompareAndSwap(0, rec.now())
			}
			rec.deliver(0, ev)
			return nil
		}), nil)
	}
	if err != nil {
		l.close()
		return nil, err
	}
	deadline = time.Now().Add(30 * time.Second)
	for rec.firstNS.Load() == 0 {
		if time.Now().After(deadline) {
			l.eng.Close()
			return l, nil
		}
		time.Sleep(time.Millisecond)
	}
	first := rec.firstNS.Load()
	lastGot, lastChange := int64(0), time.Now()
	for {
		got := rec.got[0].Load()
		if got == int64(n) {
			break
		}
		if got != lastGot {
			lastGot, lastChange = got, time.Now()
		}
		if time.Since(lastChange) > catchupQuiet || rec.now()-first > int64(catchupLimit) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.eng.Close()
	settle(func() int64 { return rec.got[0].Load() })
	got := rec.got[0].Load()
	window := time.Duration(rec.lastNS[0].Load() - first)
	if got < int64(n) {
		window += catchupQuiet
	}
	l.eps = float64(got) / window.Seconds()
	return l, nil
}
