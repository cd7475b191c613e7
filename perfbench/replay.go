package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/experiment"
	"rsstcp/internal/sim"
	"rsstcp/internal/stats"
)

// counters are the public per-layer counts of one or more replicates.
type counters struct {
	simSeconds  float64
	events      int64
	cancelled   int64
	segGets     int64
	calendarMax int64
	sched       map[string]int64 // lifetime deltas, or maxima for max_* fields
	segsSent    int64            // static flows (dynamic flows expose no sender counters)
	retrans     int64
	timeouts    int64
	congSignals int64
	collapses   int64
	stalls      int64
	ifqMax      int64
	routerDrops int64
	revDrops    int64
	queueMax    int64
	unreleased  int64
	flowsDone   int64
	refused     int64
}

func (c *counters) add(o counters) {
	c.simSeconds += o.simSeconds
	c.events += o.events
	c.cancelled += o.cancelled
	c.segGets += o.segGets
	c.calendarMax = max(c.calendarMax, o.calendarMax)
	if c.sched == nil {
		c.sched = map[string]int64{}
	}
	for k, v := range o.sched {
		if schedIsMax[k] {
			c.sched[k] = max(c.sched[k], v)
		} else {
			c.sched[k] += v
		}
	}
	c.segsSent += o.segsSent
	c.retrans += o.retrans
	c.timeouts += o.timeouts
	c.congSignals += o.congSignals
	c.collapses += o.collapses
	c.stalls += o.stalls
	c.ifqMax = max(c.ifqMax, o.ifqMax)
	c.routerDrops += o.routerDrops
	c.revDrops += o.revDrops
	c.queueMax = max(c.queueMax, o.queueMax)
	c.unreleased += o.unreleased
	c.flowsDone += o.flowsDone
	c.refused += o.refused
}

// schedFields are the calendar counters Engine.SchedStats exposes for the
// default backend, and the metrics they are reported as. They are read by
// reflection, so deleting a backend (and its fields) reads as zero instead
// of breaking the benchmark's build.
var schedFields = []struct{ field, metric string }{
	{"Sorts", "sim.sched_sorts"},
	{"Sprays", "sim.sched_sprays"},
	{"Rebases", "sim.sched_rebases"},
	{"Demotes", "sim.sched_demotes"},
	{"MaxRungs", "sim.sched_max_rungs"},
	{"MaxBottom", "sim.sched_max_bottom"},
}

var schedIsMax = map[string]bool{"MaxRungs": true, "MaxBottom": true}

func schedStats(eng *sim.Engine) map[string]int64 {
	out := map[string]int64{}
	m := reflect.ValueOf(eng).MethodByName("SchedStats")
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 1 {
		return out
	}
	v := m.Call(nil)[0]
	if v.Kind() != reflect.Struct {
		return out
	}
	for _, sf := range schedFields {
		f := v.FieldByName(sf.field)
		switch {
		case !f.IsValid():
		case f.CanInt():
			out[sf.field] = f.Int()
		case f.CanUint():
			out[sf.field] = int64(f.Uint())
		}
	}
	return out
}

// engineMark is a lifetime-counter reading taken before a measured call.
type engineMark struct {
	cancelled uint64
	segGets   int64
	sched     map[string]int64
}

func markEngine(s *experiment.Scenario) engineMark {
	gets, _ := s.SegCounters()
	return engineMark{cancelled: s.Eng.Stats().Cancelled, segGets: gets, sched: schedStats(s.Eng)}
}

// countersSince reads the layer counters of a scenario that just ran, given
// the lifetime readings taken before it ran.
func countersSince(s *experiment.Scenario, res experiment.Result, m engineMark, events int64) counters {
	st := s.Eng.Stats()
	gets, _ := s.SegCounters()
	c := counters{
		events:      events,
		cancelled:   int64(st.Cancelled - m.cancelled),
		segGets:     gets - m.segGets,
		calendarMax: int64(st.HeapHighWater),
		sched:       map[string]int64{},
		timeouts:    res.Totals.Timeouts,
		congSignals: res.Totals.CongSignals,
		collapses:   res.Totals.Collapses,
		stalls:      res.Totals.Stalls,
		routerDrops: res.RouterDrops,
		revDrops:    res.ReverseDrops,
		refused:     res.FlowsRefused,
	}
	for k, v := range schedStats(s.Eng) {
		if schedIsMax[k] {
			c.sched[k] = v
		} else {
			c.sched[k] = v - m.sched[k]
		}
	}
	now := s.Eng.Now()
	for _, f := range s.Flows {
		ws := f.Sender.Stats().Snapshot(now)
		c.segsSent += ws.SegsOut
		c.retrans += ws.SegsRetrans
		c.ifqMax = max(c.ifqMax, int64(f.NIC.Stats().MaxQueue))
	}
	for _, h := range res.Hops {
		c.queueMax = max(c.queueMax, int64(h.MaxQueue))
	}
	if res.FCT != nil {
		c.flowsDone = res.FCT.Count
	}
	return c
}

// drain retires every flow of a finished scenario — arrivals stop, static
// flows detach, dynamic flows run to completion — then lets in-flight
// segments land, and reports how many pooled segments were never returned.
// Only a drained scenario can prove its segment pool balanced; the result
// the benchmark checks is taken before the drain.
func drain(s *experiment.Scenario) (int64, error) {
	s.StopChurn()
	for _, f := range s.Flows {
		s.DetachFlow(f)
	}
	t := s.Eng.Now()
	for i := 0; s.LiveFlows() > 0; i++ {
		if i == 240 {
			return 0, fmt.Errorf("%d dynamic flows still live 120 s after arrivals stopped", s.LiveFlows())
		}
		t = t.Add(500 * time.Millisecond)
		s.Eng.RunUntil(t)
	}
	s.Eng.RunUntil(t.Add(2 * time.Second))
	if n := s.Eng.Leaked(); n != 0 {
		return 0, fmt.Errorf("%d calendar entries leaked after drain", n)
	}
	gets, releases := s.SegCounters()
	return gets - releases, nil
}

// replayWorker is one goroutine's reused scenario, as in the campaign
// runner: the first replicate builds, later ones reset in place.
type replayWorker struct {
	s *experiment.Scenario
}

// replicate runs one replicate of a plan cell through the public calls the
// campaign runner makes (Plan.Config, Build or Reset, Engine.RunUntil,
// ResultFor, Metric.Extract), then audits it: no leaked calendar entry and,
// when audit is set, a balanced segment pool once drained. Any error or
// panic fails the replicate and discards the scenario.
func (w *replayWorker) replicate(p campaign.Plan, cell campaign.PlanCell, rep int, id int64, tr *tracer, audit bool) (vals []float64, c counters, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			w.s = nil
		}
	}()
	cfg := p.Config(cell, rep)
	cfg.Traceless = true // stock metrics read running counters; the runner runs traceless too
	root := tr.begin("replicate", 0, id)
	defer tr.end(root)
	if w.s == nil {
		sp := tr.begin("experiment.build", root, id)
		s, err := experiment.Build(cfg)
		tr.end(sp)
		if err != nil {
			return nil, c, err
		}
		w.s = s
	} else {
		sp := tr.begin("experiment.reset", root, id)
		err := w.s.Reset(cfg)
		tr.end(sp)
		if err != nil {
			return nil, c, err
		}
	}
	s := w.s
	mark := markEngine(s)
	sp := tr.begin("sim.run_until", root, id)
	s.Eng.RunUntil(sim.At(cfg.Duration))
	tr.end(sp)
	events := int64(s.Eng.Processed())
	sp = tr.begin("experiment.result", root, id)
	res := s.ResultFor(0)
	tr.end(sp)
	sp = tr.begin("campaign.extract", root, id)
	vals = make([]float64, len(p.Metrics))
	for i, m := range p.Metrics {
		vals[i] = m.Extract(res)
	}
	tr.end(sp)
	c = countersSince(s, res, mark, events)
	c.simSeconds = cfg.Duration.Seconds()
	if n := s.Eng.Leaked(); n != 0 {
		return nil, c, fmt.Errorf("%d calendar entries leaked at the horizon", n)
	}
	if !audit {
		return vals, c, nil
	}
	sp = tr.begin("bench.drain", root, id)
	unreleased, err := drain(s)
	tr.end(sp)
	if err != nil {
		return nil, c, err
	}
	if unreleased != 0 {
		c.unreleased = unreleased
		return nil, c, fmt.Errorf("segment pool unbalanced by %d after drain", unreleased)
	}
	return vals, c, nil
}

// replayResult is one replay pass over a plan.
type replayResult struct {
	c        counters
	failed   int
	failures []string
}

// replay runs every replicate of the plan on the campaign runner's default
// worker count, each worker taking the next replicate in canonical order
// when it finishes one (the runner's closed loop), folds the metric values
// per cell through the stats accumulators in canonical order, and compares
// each cell's summaries with want, the report the campaign runner produced
// for the same plan. A replicate fails on any audit error or when its cell's
// summaries differ.
func replay(p campaign.Plan, cells []campaign.PlanCell, want *campaign.Report, tr *tracer, idBase int64, audit bool) replayResult {
	workers := campaign.DefaultWorkers()
	reps := p.Replicates
	total := len(cells) * reps
	vals := make([][]float64, total)
	errs := make([]error, total)
	cs := make([]counters, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			var w replayWorker
			for {
				g := int(next.Add(1) - 1)
				if g >= total {
					return
				}
				vals[g], cs[g], errs[g] = w.replicate(p, cells[g/reps], g%reps, idBase+int64(g), tr, audit)
			}
		}()
	}
	wg.Wait()

	var out replayResult
	for g := range cs {
		out.c.add(cs[g])
	}
	accs := make([]stats.Accumulator, len(p.Metrics))
	for ci, cell := range cells {
		sp := tr.begin("stats.fold", 0, idBase+int64(ci*reps))
		var cellErr error
		for r := 0; r < reps; r++ {
			if err := errs[ci*reps+r]; err != nil {
				cellErr = err
				break
			}
			for mi := range accs {
				accs[mi].Add(vals[ci*reps+r][mi])
			}
		}
		if cellErr == nil {
			cellErr = sameSummaries(p, accs, want.Cells[ci])
		}
		for mi := range accs {
			accs[mi].Reset()
		}
		tr.end(sp)
		if cellErr != nil {
			out.failed += reps
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", cell.Key, cellErr))
		}
	}
	return out
}

// sameSummaries compares the accumulated summaries with a report cell's,
// through their JSON form so NaN summaries compare equal.
func sameSummaries(p campaign.Plan, accs []stats.Accumulator, want campaign.ReportCell) error {
	if len(want.Metrics) != len(accs) {
		return fmt.Errorf("report has %d metrics, replay %d", len(want.Metrics), len(accs))
	}
	for mi, m := range p.Metrics {
		got, err1 := json.Marshal(campaign.MetricSummary{Name: m.Name, Summary: accs[mi].Summary()})
		exp, err2 := json.Marshal(want.Metrics[mi])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("metric %s: encoding summaries: %v %v", m.Name, err1, err2)
		}
		if string(got) != string(exp) {
			return fmt.Errorf("metric %s: replay %s, campaign %s", m.Name, got, exp)
		}
	}
	return nil
}
