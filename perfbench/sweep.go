package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/experiment"
)

// setupReps is how many times a run repeats its set-up to report a median.
const setupReps = 201

// sweepSetup times what a campaign does before its first replicate runs:
// plan validation, cell expansion and the first scenario build.
func sweepSetup(p campaign.Plan) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := p.Validate(); err != nil {
			return 0, err
		}
		cells := p.Cells()
		cfg := p.Config(cells[0], 0)
		cfg.Traceless = true
		s, err := experiment.Build(cfg)
		if err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		runtime.KeepAlive(s)
	}
	return median(ds), nil
}

// runPlan executes the plan on the campaign runner with default options,
// exports the report as JSON and hashes it.
func runPlan(p campaign.Plan, opts campaign.Options, tr *tracer) (*campaign.Report, string, error) {
	rep, err := campaign.ExecutePlan(p, opts)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	sp := tr.begin("campaign.export", 0, -1)
	err = rep.WriteJSON(&buf)
	tr.end(sp)
	if err != nil {
		return nil, "", fmt.Errorf("exporting report: %w", err)
	}
	return rep, sha(buf.Bytes()), nil
}

// bytesPerFlow builds and runs each cell's first replicate on a fresh
// scenario and reports the heap retained after GC per flow the scenarios
// carried (static, completed and still live flows), over all cells.
func bytesPerFlow(p campaign.Plan, cells []campaign.PlanCell) (float64, error) {
	var bytes, flows int64
	for _, cell := range cells {
		cfg := p.Config(cell, 0)
		cfg.Traceless = true
		h0 := heapAfterGC()
		s, err := experiment.Build(cfg)
		if err != nil {
			return 0, err
		}
		res := s.Run()
		h1 := heapAfterGC()
		n := len(s.Flows) + s.LiveFlows()
		if res.FCT != nil {
			n += int(res.FCT.Count)
		}
		runtime.KeepAlive(s)
		bytes += int64(h1) - int64(h0)
		flows += int64(n)
	}
	if bytes <= 0 || flows == 0 {
		return 0, fmt.Errorf("%d bytes retained over %d flows", bytes, flows)
	}
	return float64(bytes) / float64(flows), nil
}

// runSweep measures a campaign workload. The plan is submitted whole to the
// campaign runner on its default worker count (a closed loop: each worker
// takes the next replicate when it finishes one), pass after pass, until
// the time budget is spent. Every pass must export the same bytes.
func runSweep(name string, p campaign.Plan, o runOpts) (*outcome, error) {
	if o.trace {
		return traceSweep(name, p, o)
	}
	out := &outcome{}
	runs := p.Runs()
	simPerPass := float64(runs) * p.Duration.Seconds()

	setup, err := sweepSetup(p)
	if err != nil {
		return nil, err
	}
	// The first pass fills caches and pools and sets the reference report.
	check, err := newOutputCheck(name, o.seed)
	if err != nil {
		return nil, err
	}
	ref, refHash, err := runPlan(p, campaign.Options{}, nil)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	out.attempted += runs
	out.hash = refHash
	if err := check.check(refHash); err != nil {
		out.fail(runs, err.Error())
	}

	var okSim float64
	var okWall time.Duration
	heap := startHeapSampler()
	start := time.Now()
	for okWall == 0 || time.Since(start) < o.seconds {
		t0 := time.Now()
		_, h, err := runPlan(p, campaign.Options{}, nil)
		wall := time.Since(t0)
		out.attempted += runs
		if err == nil {
			err = check.check(h)
		}
		if err != nil {
			out.fail(runs, err.Error())
		} else {
			okSim += simPerPass
			okWall += wall
		}
		if okWall == 0 && out.failed > 10*runs {
			break
		}
	}
	peak := heap.finish()

	cells := p.Cells()
	bpf, err := bytesPerFlow(p, cells)
	out.attempted += len(cells)
	if err != nil {
		out.fail(1, "bytes per flow: "+err.Error())
	}
	// Audit: replay every replicate through the public calls, check each
	// for leaks and the per-cell summaries against the runner's report.
	rr := replay(p, cells, ref, nil, 0, true)
	out.attempted += runs
	for _, f := range rr.failures {
		out.fail(0, f)
	}
	out.failed += rr.failed

	endToEnd(out, setup, okSim/okWall.Seconds(), bpf, peak)
	return out, nil
}

// traceSweep is the traced run of a campaign workload. Its first half runs
// the campaign runner untraced with self-metrics on (the runner's phase
// split, export and shard-merge spans, and the untraced speed); its second
// half replays the same cells and seeds through the public calls with a
// span around each call and the CPU profiler on. The replay must reproduce
// the runner's per-cell summaries exactly.
func traceSweep(name string, p campaign.Plan, o runOpts) (*outcome, error) {
	out := &outcome{}
	tr := newTracer()
	runs := p.Runs()
	simPerPass := float64(runs) * p.Duration.Seconds()
	cells := p.Cells()

	check, err := newOutputCheck(name, o.seed)
	if err != nil {
		return nil, err
	}
	self := campaign.NewSelfMetrics()
	ref, refHash, err := runPlan(p, campaign.Options{Self: self}, tr)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	out.attempted += runs
	out.hash = refHash
	if err := check.check(refHash); err != nil {
		out.fail(runs, err.Error())
	}
	var untraced []float64
	passesA := 1
	start := time.Now()
	for time.Since(start) < o.seconds/2 {
		t0 := time.Now()
		_, h, err := runPlan(p, campaign.Options{Self: self}, tr)
		wall := time.Since(t0)
		passesA++
		out.attempted += runs
		if err == nil {
			err = check.check(h)
		}
		if err != nil {
			out.fail(runs, err.Error())
		} else {
			untraced = append(untraced, simPerPass/wall.Seconds())
		}
	}
	build, run, fold := self.Phases()

	// Two-shard split: execute both shards, then time the parent's side —
	// writing and reading the shard reports and merging them.
	merged, mergeWall, err := shardMerge(p)
	if err == nil {
		err = check.check(merged)
	}
	out.attempted += runs
	if err != nil {
		out.fail(runs, "2-shard merge: "+err.Error())
	}

	prof := newProfiler(name)
	if err := prof.resume(); err != nil {
		return nil, err
	}
	var traced []float64
	var first counters
	var allEvents int64
	passesB := 0
	start = time.Now()
	for passesB < 2 || time.Since(start) < o.seconds/2 {
		t0 := time.Now()
		// The first pass also drains and audits every replicate; the
		// others are timed for the tracing overhead.
		rr := replay(p, cells, ref, tr, int64(passesB*runs), passesB == 0)
		wall := time.Since(t0)
		if passesB == 0 {
			first = rr.c
		}
		allEvents += rr.c.events
		passesB++
		out.attempted += runs
		for _, f := range rr.failures {
			out.fail(0, f)
		}
		out.failed += rr.failed
		if rr.failed == 0 && passesB > 1 {
			traced = append(traced, simPerPass/wall.Seconds())
		}
	}
	if err := prof.pause(); err != nil {
		return nil, err
	}

	layerMetrics(out, first, tr, prof.lp, passesB, allEvents)
	pa := time.Duration(passesA)
	campaignLayer(out, build/pa, run/pa, fold/pa, 1e3*median(tr.durations("campaign.export")),
		1e3*mergeWall, overhead(untraced, traced))
	if err := tr.write(name + ".spans.jsonl"); err != nil {
		return nil, err
	}
	return out, nil
}

// shardMerge runs the plan as two cell shards and times the merging
// parent's work: writing both shard reports, reading them back, merging
// and exporting. It returns the merged report's hash and that time.
func shardMerge(p campaign.Plan) (string, float64, error) {
	var shards [2]*campaign.ShardReport
	for k := range shards {
		r, err := campaign.ExecuteShard(p, 2, k, campaign.Options{})
		if err != nil {
			return "", 0, err
		}
		shards[k] = r
	}
	t0 := time.Now()
	var read []*campaign.ShardReport
	for _, r := range shards {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			return "", 0, err
		}
		back, err := campaign.ReadShardReport(&buf)
		if err != nil {
			return "", 0, err
		}
		read = append(read, back)
	}
	rep, err := campaign.MergeShards(p, read)
	if err != nil {
		return "", 0, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return "", 0, err
	}
	return sha(buf.Bytes()), time.Since(t0).Seconds(), nil
}
