package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// expectedJSON records the sha256 of each workload's simulated output for
// the default seed (1) and the held-out seed (see README.md). A run on one
// of those seeds must reproduce it exactly.
//
//go:embed expected.json
var expectedJSON []byte

// The seeds expected.json records: the default and the held-out one.
const (
	defaultSeed = 1
	heldOutSeed = 4242
)

// outputCheck holds the output hash every pass of one run must reproduce:
// the one expected.json records for the workload and seed, or else the
// first pass's.
type outputCheck struct {
	want     string
	recorded bool
}

func newOutputCheck(workload string, seed uint64) (*outputCheck, error) {
	var recorded map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &recorded); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	want := recorded[workload][strconv.FormatUint(seed, 10)]
	return &outputCheck{want: want, recorded: want != ""}, nil
}

func (c *outputCheck) check(hash string) error {
	switch {
	case c.want == "":
		c.want = hash
	case hash != c.want && c.recorded:
		return fmt.Errorf("output sha256 %s, expected.json records %s for this seed", hash, c.want)
	case hash != c.want:
		return fmt.Errorf("output sha256 %s differs from the first pass's %s", hash, c.want)
	}
	return nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// heapSampler tracks the peak of live heap objects while a measurement runs.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// heapAfterGC returns the heap in use once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runtimeReading is a snapshot of the Go runtime's cumulative counters.
type runtimeReading struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	allocBytes      uint64
	pauseNs         uint64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeReading{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
		pauseNs:    m.PauseTotalNs,
	}
}

// profiler records CPU samples and runtime counters over the traced
// sections of a run (resume to pause), adding them up across sections.
type profiler struct {
	name     string
	buf      bytes.Buffer
	rt0      runtimeReading
	sections int
	lp       layerProfile
}

// layerProfile is the traced sections' CPU attribution and runtime deltas.
type layerProfile struct {
	samples map[string]int64
	total   int64
	rt      runtimeReading // deltas summed over the sections
}

func newProfiler(name string) *profiler {
	return &profiler{name: name, lp: layerProfile{samples: map[string]int64{}}}
}

func (p *profiler) resume() error {
	p.buf.Reset()
	p.rt0 = readRuntime()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	return nil
}

// pause ends a section. The first section's profile is kept as
// <workload>.cpu.pprof for go tool pprof.
func (p *profiler) pause() error {
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	rt := &p.lp.rt
	rt.gcCPU += rt1.gcCPU - p.rt0.gcCPU
	rt.totalCPU += rt1.totalCPU - p.rt0.totalCPU
	rt.gcCycles += rt1.gcCycles - p.rt0.gcCycles
	rt.allocBytes += rt1.allocBytes - p.rt0.allocBytes
	rt.pauseNs += rt1.pauseNs - p.rt0.pauseNs
	if p.sections == 0 {
		if err := writeArtifact(p.name+".cpu.pprof", p.buf.Bytes()); err != nil {
			return err
		}
	}
	p.sections++
	samples, total, err := layerSamples(p.buf.Bytes())
	if err != nil {
		return err
	}
	for l, n := range samples {
		p.lp.samples[l] += n
	}
	p.lp.total += total
	return nil
}

// artifactDir holds the traced run's spans and CPU profile, inside the
// checkout's build directory.
const artifactDir = ".bench_build/trace"

func writeArtifact(name string, data []byte) error {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(artifactDir, name), data, 0o644)
}

// layerMetrics reports the per-layer figures shared by every workload. c
// holds one pass's counters (a campaign pass, or one many-flows window);
// tr holds every traced span; passes is how many passes the profile and
// runtime deltas cover.
func layerMetrics(o *outcome, c counters, tr *tracer, lp layerProfile, passes int, allEvents int64) {
	ev := float64(max(c.events, 1))
	runNs := tr.total("sim.run_until") * 1e9
	o.set("sim.ns_per_event", "ns", runNs/float64(max(allEvents, 1)))
	o.set("sim.events", "count", float64(c.events))
	o.set("sim.events_per_sim_s", "1/s", float64(c.events)/c.simSeconds)
	o.set("sim.cancelled_per_event", "ratio", float64(c.cancelled)/ev)
	o.set("sim.calendar_max", "count", float64(c.calendarMax))
	for _, sf := range schedFields {
		o.set(sf.metric, "count", float64(c.sched[sf.field]))
	}
	o.set("tcp.segments_sent", "count", float64(c.segsSent))
	o.set("tcp.retrans_per_kseg", "1/kseg", 1000*float64(c.retrans)/float64(max(c.segsSent, 1)))
	o.set("tcp.timeouts", "count", float64(c.timeouts))
	o.set("cc.cong_signals", "count", float64(c.congSignals))
	o.set("cc.collapses", "count", float64(c.collapses))
	o.set("host.stalls", "count", float64(c.stalls))
	o.set("host.ifq_max", "count", float64(c.ifqMax))
	o.set("netem.router_drops", "count", float64(c.routerDrops))
	o.set("netem.rev_drops", "count", float64(c.revDrops))
	o.set("netem.queue_max", "count", float64(c.queueMax))
	o.set("packet.gets_per_event", "ratio", float64(c.segGets)/ev)
	o.set("packet.unreleased", "count", float64(c.unreleased))
	o.set("lifecycle.flows_done", "count", float64(c.flowsDone))
	o.set("lifecycle.flows_per_sim_s", "1/s", float64(c.flowsDone)/c.simSeconds)
	o.set("lifecycle.flows_refused", "count", float64(c.refused))

	ms := func(name string) float64 { return 1e3 * median(tr.durations(name)) }
	o.set("experiment.build_ms", "ms", ms("experiment.build"))
	o.set("experiment.reset_us", "us", 1e3*ms("experiment.reset"))
	o.set("experiment.result_us", "us", 1e3*ms("experiment.result"))
	runs := tr.durations("sim.run_until")
	o.set("experiment.run_ms_p50", "ms", 1e3*quantile(runs, 0.5))
	o.set("experiment.run_ms_p90", "ms", 1e3*quantile(runs, 0.9))
	o.set("experiment.run_samples", "count", float64(len(runs)))

	p := float64(max(passes, 1))
	o.set("runtime.gc_frac", "frac", lp.rt.gcCPU/max(lp.rt.totalCPU, 1e-9))
	o.set("runtime.gc_cycles", "count", float64(lp.rt.gcCycles)/p)
	o.set("runtime.gc_pause_ms", "ms", float64(lp.rt.pauseNs)/1e6/p)
	o.set("runtime.alloc_bytes_per_event", "B", float64(lp.rt.allocBytes)/float64(max(allEvents, 1)))
	for _, l := range layerNames {
		o.set(l+".self_frac", "frac", float64(lp.samples[l])/float64(max(lp.total, 1)))
	}
	o.set("profile.samples", "count", float64(lp.total))
}

// endToEnd reports the end-to-end metrics, the same set on every workload.
// ok_frac is the share of attempted replicates that passed every check.
func endToEnd(o *outcome, setup, simPerWall, perFlow, peakMB float64) {
	o.set("setup_s", "s", setup)
	o.set("sim_s_per_s", "s/s", simPerWall)
	o.set("bytes_per_flow", "B", perFlow)
	o.set("peak_heap_mb", "MB", peakMB)
	o.set("ok_frac", "frac", 1-float64(o.failed)/float64(max(o.attempted, 1)))
}

// campaignLayer reports the campaign runner's own figures (zero on a
// workload that runs no campaign) and the tracing overhead.
func campaignLayer(o *outcome, build, run, fold time.Duration, exportMs, mergeMs, overheadFrac float64) {
	o.set("campaign.phase_build_s", "s", build.Seconds())
	o.set("campaign.phase_run_s", "s", run.Seconds())
	o.set("campaign.phase_fold_s", "s", fold.Seconds())
	o.set("campaign.export_ms", "ms", exportMs)
	o.set("campaign.shard_merge_ms", "ms", mergeMs)
	o.set("trace.overhead_frac", "frac", overheadFrac)
}

// overhead is how much slower the traced passes ran than the untraced ones,
// as a share of the traced speed.
func overhead(untraced, traced []float64) float64 {
	if len(untraced) == 0 || len(traced) == 0 {
		return 0
	}
	return median(untraced)/median(traced) - 1
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
