package main

import (
	"sync/atomic"
	"time"
)

// recorder is the subscriber-side half of the correctness check. Each
// subscriber's callback records, per sequence number, how often the
// event arrived, the first copy and when it arrived; the first arrival
// at the last subscriber completes the event and wakes the generator.
// Everything is preallocated, so recording allocates nothing and the
// per-event allocation count measures the program alone. The arrival
// time is stored after the copy, so a nonzero atNS publishes a
// complete copy to check, even while deliveries still run.
type recorder struct {
	n     int
	base  time.Time
	count [][]atomic.Int32 // [sub][seq] deliveries
	first [][]SkiRental    // [sub][seq] first delivered copy
	atNS  [][]atomic.Int64 // [sub][seq] first arrival, ns since base (≥ 1)
	left  []atomic.Int32   // [seq] subscribers still to deliver
	done  chan uint64      // completed seqs; buffered for every event, never blocks

	stray  []atomic.Int64 // [sub] deliveries of a seq outside the round
	probes []atomic.Int64 // [sub] set-up probes delivered
	got    []atomic.Int64 // [sub] distinct seqs delivered
	lastNS []atomic.Int64 // [sub] latest first-arrival

	firstNS atomic.Int64 // earliest arrival of a non-probe event (catch-up)
}

func newRecorder(subs, n int, base time.Time) *recorder {
	r := &recorder{
		n:      n,
		base:   base,
		count:  make([][]atomic.Int32, subs),
		first:  make([][]SkiRental, subs),
		atNS:   make([][]atomic.Int64, subs),
		left:   make([]atomic.Int32, n),
		done:   make(chan uint64, n),
		stray:  make([]atomic.Int64, subs),
		probes: make([]atomic.Int64, subs),
		got:    make([]atomic.Int64, subs),
		lastNS: make([]atomic.Int64, subs),
	}
	for s := 0; s < subs; s++ {
		r.count[s] = make([]atomic.Int32, n)
		r.first[s] = make([]SkiRental, n)
		r.atNS[s] = make([]atomic.Int64, n)
	}
	for i := range r.left {
		r.left[i].Store(int32(subs))
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// deliver is subscriber sub's callback body.
func (r *recorder) deliver(sub int, ev SkiRental) {
	if ev.Seq >= probeBase {
		r.probes[sub].Add(1)
		return
	}
	if ev.Seq >= uint64(r.n) {
		r.stray[sub].Add(1)
		return
	}
	if r.count[sub][ev.Seq].Add(1) != 1 {
		return // a duplicate: counted, judged by check
	}
	at := max(r.now(), 1)
	r.first[sub][ev.Seq] = ev
	r.atNS[sub][ev.Seq].Store(at)
	r.got[sub].Add(1)
	r.lastNS[sub].Store(at)
	if r.left[ev.Seq].Add(-1) == 0 {
		r.done <- ev.Seq
	}
}

// probed reports whether every subscriber has received a set-up probe.
func (r *recorder) probed() bool {
	for s := range r.probes {
		if r.probes[s].Load() == 0 {
			return false
		}
	}
	return true
}

// verdict is the checker's account of one set of deliveries.
type verdict struct {
	missing, duplicate, wrong, stray int
	bad                              []bool // [seq] some subscriber got it missing, twice or wrong
}

// check compares every delivery with an independent regeneration of
// the event from (seed, seq): each subscriber must hold exactly one
// copy of each event, equal field by field. Call it once deliveries
// have settled; a copy still being recorded counts as missing.
func (r *recorder) check(seed int64, noteLen int) verdict {
	v := verdict{bad: make([]bool, r.n)}
	for seq := 0; seq < r.n; seq++ {
		want := genEvent(seed, uint64(seq), noteLen)
		for s := range r.count {
			if r.atNS[s][seq].Load() == 0 {
				v.missing++
				v.bad[seq] = true
				continue
			}
			if r.count[s][seq].Load() > 1 {
				v.duplicate++
				v.bad[seq] = true
			}
			if r.first[s][seq] != want {
				v.wrong++
				v.bad[seq] = true
			}
		}
	}
	for s := range r.stray {
		v.stray += int(r.stray[s].Load())
	}
	return v
}

// release drops the checked copies, so that the heap read after a
// check holds what the program keeps, not the benchmark's copies.
func (r *recorder) release() {
	for s := range r.first {
		clear(r.first[s])
	}
}

// failedEvents is the number of events some subscriber did not get
// exactly once and intact.
func (v verdict) failedEvents() int {
	n := 0
	for _, b := range v.bad {
		if b {
			n++
		}
	}
	return n
}

// clean reports whether nothing at all went wrong.
func (v verdict) clean() bool {
	return v.missing == 0 && v.duplicate == 0 && v.wrong == 0 && v.stray == 0
}
