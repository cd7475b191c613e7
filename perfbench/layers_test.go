package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"
)

// TestLayerTableCoversInternal fails when a package under internal/ has no
// layer, so its CPU samples cannot land in the "other" bucket unnoticed.
func TestLayerTableCoversInternal(t *testing.T) {
	if err := checkLayerTable(".."); err != nil {
		t.Fatal(err)
	}
}

func TestLayerTableTargetsReportedLayers(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layerNames {
		known[l] = true
	}
	for pkg, l := range layerOf {
		if !known[l] {
			t.Errorf("internal/%s maps to %q, which the traced run does not report", pkg, l)
		}
	}
}

func TestLayerOfFunc(t *testing.T) {
	for fn, want := range map[string]string{
		"rsstcp/internal/sim.(*Engine).runLadder":            "sim",
		"rsstcp/internal/netem.(*HopArena).deliver.func1":    "netem",
		"rsstcp/internal/core.(*RestrictedSlowStart).tick":   "cc",
		"rsstcp/internal/nosuch.F":                           "other",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/atomic.(*Uint32).Load":             "runtime",
		"main.main":                                          "bench",
		"sort.Search":                                        "",
		"slices.SortFunc[go.shape.[]*uint8,go.shape.*uint8]": "",
	} {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLayerSamplesDecodesProfile profiles a busy loop in this package and
// checks the decoder attributes its samples to the harness.
func TestLayerSamplesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	samples, total, err := layerSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("no CPU samples recorded")
	}
	if samples["bench"] == 0 {
		t.Errorf("no samples attributed to the harness (total %d, by layer %v, x %d)", total, samples, x)
	}
}

// TestBenchmarkJSONMatchesMetrics checks BENCHMARK.json lists exactly the
// metrics the benchmark prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer outcome
	endToEnd(&e2e, 1, 1, 1, 1)
	layerMetrics(&layer, counters{simSeconds: 1}, newTracer(), layerProfile{}, 1, 1)
	campaignLayer(&layer, 0, 0, 0, 0, 0, 0)
	for _, c := range []struct {
		what string
		got  []namedMetric
		want []entry
	}{{"end_to_end", e2e.metrics, spec.EndToEnd}, {"per_layer", layer.metrics, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", c.what, len(c.got), len(c.want))
		}
		for i := 0; i < len(c.got) && i < len(c.want); i++ {
			if c.got[i].name != c.want[i].Name || c.got[i].unit != c.want[i].Unit {
				t.Errorf("%s[%d]: prints %s (%s), BENCHMARK.json has %s (%s)",
					c.what, i, c.got[i].name, c.got[i].unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadOrder[i])
		}
	}
}

// TestExpectedHashesRecorded checks expected.json covers the default and
// the held-out seed of every workload.
func TestExpectedHashesRecorded(t *testing.T) {
	var want map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadOrder {
		for _, seed := range []string{strconv.Itoa(defaultSeed), strconv.Itoa(heldOutSeed)} {
			if len(want[w][seed]) != 64 {
				t.Errorf("expected.json: no sha256 for %s seed %s", w, seed)
			}
		}
	}
}
