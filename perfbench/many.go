package main

import (
	"fmt"
	"runtime"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/sim"
)

// manyFlowsRun is one build-ramp-window repetition of the many-flows
// scenario.
type manyFlowsRun struct {
	setup   float64   // Build plus the ramp, seconds
	rates   []float64 // simulated seconds per wall second, per window slice
	timed   time.Duration
	hash    string
	perFlow float64 // retained heap per live flow after GC, bytes
	peakMB  float64
	c       counters
}

// manyFlowsRep builds the scenario, runs the ramp that fills the flow cap
// (set-up), then times the steady window slice by slice. The window's
// output — events, per-hop statistics, live and refused counts, totals —
// is hashed; it must be identical in every repetition.
//
// A non-nil prof covers the window only; tr, when non-nil, records spans.
func manyFlowsRep(cfg experiment.Config, tr *tracer, prof *profiler, id int64) (r manyFlowsRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	h0 := heapAfterGC()
	heap := startHeapSampler()
	defer func() { r.peakMB = heap.finish() }()

	root := tr.begin("replicate", 0, id)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("experiment.build", root, id)
	s, err := experiment.Build(cfg)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("sim.ramp", root, id)
	s.Eng.RunUntil(sim.At(manyFlowsRamp))
	tr.end(sp)
	r.setup = time.Since(t0).Seconds()
	if live := s.LiveFlows(); live != manyFlowsLive {
		return r, fmt.Errorf("ramp reached %d live flows, want %d", live, manyFlowsLive)
	}

	mark := markEngine(s)
	e0 := s.Eng.Processed()
	if prof != nil {
		if err := prof.resume(); err != nil {
			return r, err
		}
		defer func() {
			if prof != nil {
				prof.pause() // a failed window: its samples are not reported
			}
		}()
	}
	for t := manyFlowsRamp + manyFlowsSlice; t <= manyFlowsRamp+manyFlowsWindow; t += manyFlowsSlice {
		t1 := time.Now()
		sp := tr.begin("sim.run_until", root, id)
		s.Eng.RunUntil(sim.At(t))
		tr.end(sp)
		r.timed += time.Since(t1)
	}
	if prof != nil {
		err := prof.pause()
		prof = nil
		if err != nil {
			return r, err
		}
	}
	events := int64(s.Eng.Processed() - e0)
	sp = tr.begin("experiment.result", root, id)
	res := s.ResultFor(0)
	tr.end(sp)
	if n := s.Eng.Leaked(); n != 0 {
		return r, fmt.Errorf("%d calendar entries leaked at the horizon", n)
	}
	r.c = countersSince(s, res, mark, events)
	r.c.simSeconds = manyFlowsWindow.Seconds()
	live := s.LiveFlows()
	r.hash = sha(fmt.Appendf(nil, "events=%d now=%d live=%d refused=%d totals=%+v hops=%+v",
		events, s.Eng.Now(), live, res.FlowsRefused, res.Totals, res.Hops))
	h1 := heapAfterGC()
	runtime.KeepAlive(s)
	if h1 < h0 || live == 0 {
		return r, fmt.Errorf("heap %d -> %d bytes over %d live flows", h0, h1, live)
	}
	r.perFlow = float64(h1-h0) / float64(live)
	return r, nil
}

// runManyFlows measures the many-flows workload: single-threaded
// repetitions until the timed windows add up to the budget, at least three
// so set-up has a median.
func runManyFlows(o runOpts) (*outcome, error) {
	cfg := manyFlowsConfig(o.seed)
	out := &outcome{}
	var setups, perFlow, peaks []float64
	var untraced, traced []float64 // per-repetition speeds, for the tracing overhead
	var timed, okTimed time.Duration
	window := manyFlowsWindow.Seconds()
	check, err := newOutputCheck("many-flows", o.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var prof *profiler
	var first counters
	var allEvents int64
	ok, tracedReps := 0, 0
	for rep := 0; rep < 3 || timed < o.seconds; rep++ {
		if o.trace && rep == 1 {
			// The first repetition ran untraced: it is the reference for
			// the tracing overhead.
			tr, prof = newTracer(), newProfiler("many-flows")
		}
		r, err := manyFlowsRep(cfg, tr, prof, int64(rep))
		out.attempted++
		timed += r.timed
		if err == nil {
			if out.hash == "" {
				out.hash = r.hash
			}
			err = check.check(r.hash)
		}
		if err != nil {
			out.fail(1, fmt.Sprintf("repetition %d: %v", rep, err))
			if out.failed >= 3 {
				break
			}
			continue
		}
		ok++
		okTimed += r.timed
		setups = append(setups, r.setup)
		perFlow = append(perFlow, r.perFlow)
		peaks = append(peaks, r.peakMB)
		if tr == nil {
			untraced = append(untraced, window/r.timed.Seconds())
		} else {
			if tracedReps == 0 {
				first = r.c
			}
			tracedReps++
			allEvents += r.c.events
			traced = append(traced, window/r.timed.Seconds())
		}
	}
	if !o.trace {
		endToEnd(out, median(setups), float64(ok)*window/okTimed.Seconds(), median(perFlow), median(peaks))
		return out, nil
	}
	if prof == nil {
		return nil, fmt.Errorf("no traced repetition ran")
	}
	layerMetrics(out, first, tr, prof.lp, tracedReps, allEvents)
	campaignLayer(out, 0, 0, 0, 0, 0, overhead(untraced, traced))
	if err := tr.write("many-flows.spans.jsonl"); err != nil {
		return nil, err
	}
	return out, nil
}
