package main

import (
	"sort"
	"time"

	"cpplookup/internal/lint"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is set
// for end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports on every workload.
// A step is the workload's closed-loop operation: one translation unit
// (compile-giant), one call-site batch (devirt-stream), one edit with
// its requery (edit-serve), one edit with its re-lint (lint-session).
var endToEnd = []metricSpec{
	{Name: "step_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// layerAgg is what a traced run measured, for the per-layer metrics to
// read: span self times summed per name over the traced steps, the
// set-up and the final probes, and counter sums over the traced steps.
type layerAgg struct {
	steps              int
	self, setup, final map[string]time.Duration
	counts             map[string]float64
	untracedMs         float64 // mean step of the untraced half of the run
	tracedMs           float64 // mean step of the traced half
}

type layerMetric struct {
	metricSpec
	value func(a *layerAgg) float64
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func perStepMs(span string) func(*layerAgg) float64 {
	return func(a *layerAgg) float64 { return msOf(a.self[span]) / float64(max(a.steps, 1)) }
}

func perStepUs(span string) func(*layerAgg) float64 {
	return func(a *layerAgg) float64 { return 1000 * perStepMs(span)(a) }
}

func setupMs(span string) func(*layerAgg) float64 {
	return func(a *layerAgg) float64 { return msOf(a.setup[span]) }
}

func finalMs(span string) func(*layerAgg) float64 {
	return func(a *layerAgg) float64 { return msOf(a.final[span]) }
}

func perStep(counter string) func(*layerAgg) float64 {
	return func(a *layerAgg) float64 { return a.counts[counter] / float64(max(a.steps, 1)) }
}

func ratio(num, den string) func(*layerAgg) float64 {
	return func(a *layerAgg) float64 {
		if a.counts[den] == 0 {
			return 0
		}
		return a.counts[num] / a.counts[den]
	}
}

func layer(name, unit, better string, value func(*layerAgg) float64) layerMetric {
	return layerMetric{metricSpec{Name: name, Unit: unit, Better: better}, value}
}

// perLayer are the metrics a traced run reports. Every traced run
// prints all of them; a layer the workload does not drive reads 0.
// Times are self times per measured step unless the name says set-up
// or the metric is a final probe (lint.full_ms, lint.rule.*).
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		// compile-giant → step_ms (compile_s)
		layer("cpp.lex_ms", "ms", "lower", perStepMs("cpp.lex")),
		layer("cpp.tokens", "count", "lower", perStep("cpp.tokens")),
		layer("cpp.parse_ms", "ms", "lower", perStepMs("cpp.parse")),
		layer("cpp.sema_ms", "ms", "lower", perStepMs("cpp.sema")),
		layer("cpp.resolutions", "count", "lower", perStep("cpp.resolutions")),
		layer("cpp.diagnostics", "count", "lower", perStep("cpp.diagnostics")),
		layer("engine.snapshot_ms", "ms", "lower", perStepMs("engine.snapshot")),
		layer("engine.warm_all_ms", "ms", "lower", perStepMs("engine.warm_all")),
		layer("engine.cells_filled", "count", "lower", perStep("engine.cells_filled")),
		layer("image.write_ms", "ms", "lower", perStepMs("image.write")),
		layer("image.bytes", "B", "lower", perStep("image.bytes")),
		// devirt-stream → setup_s (image.open_ms), step_ms (batch latency)
		layer("image.open_ms", "ms", "lower", setupMs("image.open")),
		layer("devirt.resolve_batch_ms", "ms", "lower", perStepMs("devirt.resolve_batch")),
		layer("devirt.unique_ratio", "ratio", "lower", ratio("devirt.unique", "devirt.sites")),
		layer("devirt.fast_path_ratio", "ratio", "higher", ratio("devirt.fast_path", "devirt.unique")),
		layer("devirt.cone_per_unique", "count", "lower", ratio("devirt.cone", "devirt.unique")),
		layer("devirt.monomorphic_ratio", "ratio", "higher", ratio("devirt.monomorphic", "devirt.sites")),
		layer("engine.lookup_batch_ms", "ms", "lower", perStepMs("engine.lookup_batch")),
		// edit-serve and lint-session → step_ms (edit, relint latency)
		layer("incremental.edit_us", "us", "lower", perStepUs("incremental.edit")),
		layer("incremental.cone_entries", "count", "lower", perStep("incremental.cone_entries")),
		layer("engine.sync_ms", "ms", "lower", perStepMs("engine.sync")),
		layer("engine.carried_cells", "count", "higher", perStep("engine.carried_cells")),
		layer("engine.invalidated_cells", "count", "lower", perStep("engine.invalidated_cells")),
		layer("engine.carry_workers", "count", "higher", perStep("engine.carry_workers")),
		layer("engine.requery_ms", "ms", "lower", perStepMs("engine.requery")),
		layer("engine.requery_fill_ratio", "ratio", "lower", ratio("engine.requery_fills", "engine.requery_queries")),
		layer("lint.sync_ms", "ms", "lower", perStepMs("lint.sync")),
		layer("lint.member_tasks", "count", "lower", perStep("lint.member_tasks")),
		layer("lint.row_tasks", "count", "lower", perStep("lint.row_tasks")),
		layer("lint.structural_tasks", "count", "lower", perStep("lint.structural_tasks")),
		layer("lint.delta_size", "count", "lower", perStep("lint.delta_size")),
		layer("lint.full_ms", "ms", "lower", finalMs("lint.full")),
	}
	for _, id := range lint.RuleIDs() {
		ms = append(ms, layer("lint.rule."+id+"_ms", "ms", "lower", finalMs("lint.rule."+id)))
	}
	return append(ms,
		// Every workload: what recording the spans above costs.
		layer("trace.overhead_ms", "ms", "lower", func(a *layerAgg) float64 { return a.tracedMs - a.untracedMs }),
		layer("trace.overhead_ratio", "ratio", "lower", func(a *layerAgg) float64 {
			if a.untracedMs == 0 {
				return 0
			}
			return a.tracedMs/a.untracedMs - 1
		}),
	)
}()

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedCopy(ds)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (nearest rank) and whether at
// least ten samples lie beyond it — the condition for reporting it.
func percentile(ds []time.Duration, q float64) (time.Duration, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	s := sortedCopy(ds)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i], len(s)-1-i >= 10
}
