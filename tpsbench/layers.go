package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
	"github.com/tps-p2p/tps/internal/obs"
)

// layerMetrics derives the per-layer figures the program itself
// counts, read through Platform.Stats. s0..s3 are the summed stats of
// every platform before the throughput phase, after it, after the
// latency phase and at the end of the round. Stage histograms are read
// over the latency phase (one event in flight, the phase lat_p50_ms
// comes from); counters per event over the throughput phase.
func layerMetrics(w workload, res roundResult, s0, s1, s2, s3 map[string]obs.Snapshot) map[string]float64 {
	latPrev, latCur := s1, s2
	if w.lat == 0 {
		latPrev, latCur = s0, s1
	}
	p50 := func(sub, key string) float64 { return histDelta(latCur, latPrev, sub, key).Quantile(0.50) }
	perEvent := func(sub, key string) float64 {
		return float64(counterDelta(s1, s0, sub, key)) / float64(res.tputEvents)
	}
	round := func(sub, key string) float64 { return float64(counterDelta(s3, s0, sub, key)) }
	dupRatio := 0.0
	if obsd := counterDelta(s1, s0, "seen", "observed"); obsd > 0 {
		dupRatio = float64(counterDelta(s1, s0, "seen", "duplicates")) / float64(obsd)
	}
	wait := histDelta(latCur, latPrev, "tcpnet", "queue_wait_us")
	return map[string]float64{
		"engine.publish_fanout_us":        p50("engine", "publish_fanout_us"),
		"engine.dispatch_us":              p50("engine", "dispatch_us"),
		"engine.transit_us":               p50("engine", "transit_us"),
		"engine.duplicates_per_event":     perEvent("engine", "duplicates"),
		"wire.duplicates_per_event":       perEvent("wire", "duplicates"),
		"endpoint.encode_us":              p50("endpoint", "encode_us"),
		"endpoint.msgs_out_per_event":     perEvent("endpoint", "msgs_out"),
		"rendezvous.propagated_per_event": perEvent("rendezvous", "propagated"),
		"rendezvous.replay_served":        round("rendezvous", "replay_served"),
		"rendezvous.send_failures":        round("rendezvous", "send_failures"),
		"seen.dup_ratio":                  dupRatio,
		"tcpnet.queue_wait_us_p50":        wait.Quantile(0.50),
		"tcpnet.queue_wait_us_p99":        wait.Quantile(0.99),
		"tcpnet.frames_per_event":         perEvent("tcpnet", "sent"),
		"tcpnet.dropped":                  round("tcpnet", "dropped"),
		"runtime.goroutines":              float64(res.goroutines),
		"runtime.gc_per_kevent":           float64(res.numGC) * 1000 / float64(res.tputEvents),
		"wire_bytes_per_event":            float64(res.wireBytes) / float64(res.tputEvents),
		"catchup_eps":                     res.catchupEPS,
		"catchup.lost_events":             float64(res.lost),
	}
}

// microSample caps how many of the round's events each layer timing
// replays.
const microSample = 2000

// microLayers times calls into each layer's public functions on the
// round's own events, outside the running system: the typed codec, the
// wire message codec, the dedupe cache, a private tcpnet pair and a
// private event log with the default fsync policy. scratch is a
// directory it may use for the log.
func microLayers(events []SkiRental, scratch string) (map[string]float64, error) {
	if len(events) > microSample {
		events = events[:microSample]
	}
	out := make(map[string]float64)
	n := len(events)

	// Typed codec: what the engine runs per publish and per remote
	// delivery.
	gob := codec.Gob{}
	payloads := make([][]byte, n)
	var err error
	if out["codec.encode_us"], out["codec.encode_allocs"], err = timeEach(n, func(i int) (err error) {
		payloads[i], err = gob.Encode(events[i])
		return err
	}); err != nil {
		return nil, err
	}
	typ := reflect.TypeOf(SkiRental{})
	if out["codec.decode_us"], out["codec.decode_allocs"], err = timeEach(n, func(i int) error {
		_, err := gob.Decode(payloads[i], typ)
		return err
	}); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	out["codec.payload_bytes"] = float64(total) / float64(n)

	// Wire message: the four-element event message the engine builds.
	src := jid.NewPeer()
	ids := make([]jid.ID, n)
	msgs := make([]*message.Message, n)
	for i := range msgs {
		ids[i] = jid.NewMessage()
		m := message.New(src)
		m.Grow(4)
		m.AddID("tps", "EventID", ids[i])
		m.AddString("tps", "Path", typ.PkgPath()+"."+typ.Name())
		m.AddString("tps", "Codec", gob.Name())
		m.AddBytes("tps", "Data", payloads[i])
		msgs[i] = m
	}
	frames := make([][]byte, n)
	if out["message.marshal_us"], _, err = timeEach(n, func(i int) (err error) {
		frames[i], err = msgs[i].Marshal()
		return err
	}); err != nil {
		return nil, err
	}
	if out["message.unmarshal_us"], _, err = timeEach(n, func(i int) error {
		_, err := message.Unmarshal(frames[i])
		return err
	}); err != nil {
		return nil, err
	}
	total = 0
	for _, f := range frames {
		total += len(f)
	}
	out["message.frame_bytes"] = float64(total) / float64(n)

	// Dedupe cache: one Observe per new event ID. Sub-microsecond, so
	// the batch is timed as a whole.
	cache := seen.New()
	start := time.Now()
	for _, id := range ids {
		cache.Observe(id)
	}
	out["seen.observe_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)

	// Endpoint frames, as the transport and the log carry them.
	ep := endpoint.New(src)
	epFrames := make([][]byte, n)
	for i, m := range msgs {
		f, err := ep.EncodeFrame("jxta.wire", "bench", m)
		if err != nil {
			return nil, err
		}
		epFrames[i] = append([]byte(nil), f...)
	}
	_ = ep.Close()

	rt, err := tcpRoundTrip(epFrames)
	if err != nil {
		return nil, err
	}
	out["tcpnet.roundtrip_us"] = rt

	dir := filepath.Join(scratch, "microlog")
	defer os.RemoveAll(dir)
	if err := logLayer(dir, epFrames, out); err != nil {
		return nil, err
	}
	return out, nil
}

// timeEach calls fn(0..n-1), timing each call, and returns the median
// call in µs and the heap allocations per call. It stops at the first
// error.
func timeEach(n int, fn func(i int) error) (medianUS, allocs float64, err error) {
	us := make([]float64, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return 0, 0, err
		}
		us[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	runtime.ReadMemStats(&ms1)
	return median(us), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// tcpRoundTrip sends each frame over a private tcpnet pair and back,
// one at a time, and returns the median round trip in µs.
func tcpRoundTrip(frames [][]byte) (float64, error) {
	a, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	back := make(chan struct{}, 1)
	b.SetReceiver(func(f []byte) { _ = b.Send(a.LocalAddress(), f) })
	a.SetReceiver(func([]byte) { back <- struct{}{} })
	if len(frames) > 500 {
		frames = frames[:500]
	}
	us := make([]float64, 0, len(frames))
	timer := time.NewTimer(stallLimit)
	defer timer.Stop()
	for i, f := range frames {
		t := time.Now()
		if err := a.Send(b.LocalAddress(), f); err != nil {
			return 0, err
		}
		timer.Reset(stallLimit)
		select {
		case <-back:
		case <-timer.C:
			return 0, fmt.Errorf("tcpnet round trip %d timed out", i)
		}
		if i > 0 { // the first pays for the dial
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return median(us), nil
}

// logLayer appends the frames to a private log with the default sync
// policy, then reads them back.
func logLayer(dir string, frames [][]byte, out map[string]float64) error {
	log, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer log.Close()
	const topic = "bench"
	if out["eventlog.append_us"], _, err = timeEach(len(frames), func(i int) error {
		_, err := log.Append(topic, func(uint64) ([]byte, error) { return frames[i], nil })
		return err
	}); err != nil {
		return err
	}
	read := 0
	start := time.Now()
	if err := log.Read(topic, 0, 0, func(eventlog.Entry) error { read++; return nil }); err != nil {
		return err
	}
	if read != len(frames) {
		return fmt.Errorf("event log read %d of %d entries", read, len(frames))
	}
	out["eventlog.read_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(read)
	out["eventlog.bytes_per_event"] = log.Snapshot().Gauges["bytes"] / float64(read)
	return nil
}
