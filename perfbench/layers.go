package main

import (
	"runtime"
	"sync/atomic"
)

// ServeStages are the server's request stages whose self times a traced
// gwdb-serve run reports.
var ServeStages = []string{"acquire_read", "rtree_probe", "score", "queue_wait", "wal_fsync",
	"delta_ground", "pin_apply", "resample", "local_ground"}

// Rules are the grounding queries replayed per rule: the derivations and
// inference rules of the GWDB program, whose names include the NYCCAS
// program's.
var Rules = []string{"D1", "D2", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11"}

// layerMetrics are the fixed per-layer metrics, grouped by module.
var layerMetrics = []MetricDef{
	{"ddlog.parse_ms", "ms"},
	{"storage.load_ms", "ms"},
	{"grounding.ground_ms", "ms"},
	{"grounding.alloc_mb", "MB"},
	{"grounding.vars", "count"},
	{"grounding.logical_factors", "count"},
	{"grounding.spatial_pairs", "count"},
	{"grounding.local_ground_ms", "ms"},
	{"grounding.delta_ms", "ms"},
	{"grounding.delta_structural", "count"},
	{"factorgraph.compile_ms", "ms"},
	{"factorgraph.ops", "count"},
	{"factorgraph.generic_ops", "count"},
	{"factorgraph.slab_mb", "MB"},
	{"gibbs.epoch_ms", "ms"},
	{"gibbs.alloc_mb", "MB"},
	{"gibbs.upsert_epoch_ms", "ms"},
	{"shard.partition_ms", "ms"},
	{"shard.boundary_vars", "count"},
	{"shard.exchange_mb", "MB"},
	{"shard.exchange_frac", "ratio"},
	{"serve.point_p50_ms", "ms"},
	{"serve.range_p50_ms", "ms"},
	{"serve.knn_p50_ms", "ms"},
	{"serve.stale_frac", "ratio"},
	{"serve.generator_late_p99_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.lazy_frac", "ratio"},
	{"serve.local_hit_frac", "ratio"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_ms", "ms"},
	{"go.gc_cycles", "count"},
}

// PerLayer lists every per-layer metric a traced run reports: the tail
// latencies, the fixed ones, each rule's replayed SQL, each server stage, and
// the end-to-end metrics as measured under tracing (minus an untraced run's
// figure, the tracing overhead). A layer a workload does not exercise
// reports 0.
func PerLayer() []MetricDef {
	out := append(append([]MetricDef(nil), TailMetrics...), layerMetrics...)
	for _, r := range Rules {
		out = append(out, MetricDef{"sqlx." + r + "_ms", "ms"}, MetricDef{"sqlx." + r + "_rows", "count"})
	}
	for _, s := range ServeStages {
		out = append(out, MetricDef{"serve.stage." + s + "_ms", "ms"})
	}
	for _, m := range EndToEnd {
		out = append(out, MetricDef{"traced." + m.Name, m.Unit})
	}
	return out
}

// traceMetrics copies the end-to-end metrics of a traced run under their
// traced.* names.
func traceMetrics(run *Run) {
	all := run.Metrics()
	for _, m := range EndToEnd {
		if v, ok := all[m.Name]; ok {
			run.Sample("traced."+m.Name, m.Unit, v.Value)
		}
	}
}

// forcedGCs counts the collections the benchmark itself forces, so
// go.gc_cycles reports only the program's own.
var forcedGCs atomic.Uint32

// settle forces a collection before a timed call, so every timing starts
// from the same heap state instead of inheriting a collection the previous
// call left half done.
func settle() {
	runtime.GC()
	forcedGCs.Add(1)
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	settle()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// gcCycles returns the collections the process ran that it did not force.
func gcCycles() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC - forcedGCs.Load()
}
