package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// layerOf maps every top-level package under internal/ to the layer its CPU
// samples and counters are reported under. Layers are named after the
// packages that own the work; a package whose work belongs to another
// package's layer is folded into it:
//
//   - core and pid are the restricted slow-start controller that cc drives;
//     zntune tunes its PID gains.
//   - web100 is the per-connection TCP instrument set the sender updates.
//   - unit is the serializer and bandwidth arithmetic of the links.
//   - workload is the application side of a flow (bulk, on/off sources),
//     born and stopped by lifecycle.
//   - trace and telemetry are recorders the scenario owns.
//
// checkLayerTable fails when a package is missing, so new code cannot hide
// in the "other" bucket.
var layerOf = map[string]string{
	"sim":        "sim",
	"tcp":        "tcp",
	"web100":     "tcp",
	"cc":         "cc",
	"core":       "cc",
	"pid":        "cc",
	"zntune":     "cc",
	"host":       "host",
	"netem":      "netem",
	"unit":       "netem",
	"packet":     "packet",
	"lifecycle":  "lifecycle",
	"workload":   "lifecycle",
	"experiment": "experiment",
	"trace":      "experiment",
	"telemetry":  "experiment",
	"campaign":   "campaign",
	"stats":      "stats",
}

// Layers reported by the traced run, in output order. "runtime" is the Go
// runtime (allocation, GC, scheduling), "bench" is this harness, and
// "other" collects samples with no repository or runtime frame at all.
var layerNames = []string{
	"sim", "tcp", "cc", "host", "netem", "packet", "lifecycle",
	"experiment", "campaign", "stats", "runtime", "bench", "other",
}

// internalPackages lists the top-level directories under root/internal that
// hold a Go package (directly or in a subdirectory).
func internalPackages(root string) ([]string, error) {
	dir := filepath.Join(root, "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if top, _, ok := strings.Cut(filepath.ToSlash(rel), "/"); ok && top != "testdata" {
			seen[top] = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("listing internal packages: %w", err)
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// checkLayerTable reports every internal package layerOf does not map.
func checkLayerTable(root string) error {
	pkgs, err := internalPackages(root)
	if err != nil {
		return err
	}
	if len(pkgs) == 0 {
		return fmt.Errorf("no packages under %s", filepath.Join(root, "internal"))
	}
	var missing []string
	for _, p := range pkgs {
		if _, ok := layerOf[p]; !ok {
			missing = append(missing, "internal/"+p)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("packages with no layer in perfbench/layers.go: %s", strings.Join(missing, ", "))
	}
	return nil
}

// packageOf extracts the import path from a symbolized function name such
// as "rsstcp/internal/sim.(*Engine).run" or "runtime.mallocgc".
func packageOf(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// layerOfFunc classifies one stack frame: a repository layer, "runtime",
// "bench", or "" for a standard-library frame that defers to its caller.
func layerOfFunc(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "main" || pkg == "rsstcp/perfbench": // the binary, or its test
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "rsstcp/internal/"):
		top, _, _ := strings.Cut(strings.TrimPrefix(pkg, "rsstcp/internal/"), "/")
		if l, ok := layerOf[top]; ok {
			return l
		}
		return "other"
	}
	return ""
}
