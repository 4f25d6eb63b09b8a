package main

import "fmt"

// layerMetric is one per-layer metric and how a traced run derives it.
type layerMetric struct {
	name, unit string
	value      func(l *layerInputs) float64
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	base, tr   *phase
	gens       []float64 // relation generation time of each set-up, s
	goroutines int       // after the traced run closed everything
}

func (l *layerInputs) sum(key string) float64      { return l.tr.rec.layer[key] }
func (l *layerInputs) perQuery(key string) float64 { return l.tr.perQuery(l.sum(key)) }
func (l *layerInputs) cpu(layer string) float64    { return l.tr.cpuLayers.share(layer) }
func (l *layerInputs) alloc(layer string) float64  { return l.tr.allocLayers.share(layer) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cpuShare(layer string) layerMetric {
	return layerMetric{layer + ".cpu_share", "fraction", func(l *layerInputs) float64 { return l.cpu(layer) }}
}

func allocShare(layer string) layerMetric {
	return layerMetric{layer + ".alloc_share", "fraction", func(l *layerInputs) float64 { return l.alloc(layer) }}
}

// perQueryMetric is a counter the workload sums, averaged over the
// traced run's verified queries.
func perQueryMetric(name, unit string) layerMetric {
	return layerMetric{name, unit, func(l *layerInputs) float64 { return l.perQuery(name) }}
}

// layerMetrics lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. A layer a workload does not reach reads 0.
func layerMetrics() []layerMetric {
	list := []layerMetric{
		{"relation.generate_ms", "ms", func(l *layerInputs) float64 { return 1000 * median(l.gens) }},
		cpuShare("sim"), allocShare("sim"),
		cpuShare("block"), allocShare("block"),
		perQueryMetric("tape.blocks_read", "blocks"),
		perQueryMetric("tape.blocks_written", "blocks"),
		perQueryMetric("tape.seeks", "count"),
		perQueryMetric("tape.exchanges", "count"),
		perQueryMetric("tape.busy_vs", "s"),
		{"tape.written_per_input_byte", "ratio", func(l *layerInputs) float64 {
			return ratio(l.sum("tape.blocks_written"), l.sum("input.blocks"))
		}},
		perQueryMetric("tape.scratch_left_mb", "MB"),
		perQueryMetric("disk.blocks_read", "blocks"),
		perQueryMetric("disk.blocks_written", "blocks"),
		{"disk.peak_mb", "MB", func(l *layerInputs) float64 { return l.sum("disk.peak_mb") }},
		perQueryMetric("disk.busy_vs", "s"),
		{"disk.written_per_input_byte", "ratio", func(l *layerInputs) float64 {
			return ratio(l.sum("disk.blocks_written"), l.sum("input.blocks"))
		}},
		cpuShare("disk"),
		{"buffer.occupancy_mean", "fraction", func(l *layerInputs) float64 {
			return ratio(l.sum("buffer.occupancy_sum"), l.sum("buffer.occupancy_count"))
		}},
		cpuShare("join"), allocShare("join"),
		perQueryMetric("join.pairs_per_query", "count"),
		perQueryMetric("join.iterations", "count"),
		perQueryMetric("join.r_scans", "count"),
		perQueryMetric("join.first_tuple_vs", "s"),
	}
	for _, ph := range joinPhases {
		list = append(list, perQueryMetric("join.phase."+ph+"_vs", "s"))
	}
	list = append(list,
		cpuShare("hashutil"),
		perQueryMetric("hashutil.heavy_hitters", "count"),
		perQueryMetric("hashutil.skew_partitions", "count"),
		cpuShare("workload"), allocShare("workload"),
		perQueryMetric("workload.mounts", "count"),
		perQueryMetric("workload.shared_passes", "count"),
		layerMetric{"workload.cache_hit_ratio", "fraction", func(l *layerInputs) float64 {
			return ratio(l.sum("workload.cache_hits"), l.sum("workload.cache_hits")+l.sum("workload.cache_misses"))
		}},
		perQueryMetric("workload.cache_evictions", "count"),
		perQueryMetric("workload.queue_wait_vs", "s"),
		perQueryMetric("workload.queue_wait_ms", "ms"),
		perQueryMetric("workload.substituted_ratio", "fraction"),
		layerMetric{"service.cpu_share", "fraction", func(l *layerInputs) float64 { return l.cpu("service") }},
		perQueryMetric("service.accept_ms", "ms"),
		perQueryMetric("service.server_ms", "ms"),
		perQueryMetric("service.transport_ms", "ms"),
		layerMetric{"service.rejected_ratio", "fraction", func(l *layerInputs) float64 {
			return ratio(l.sum("service.rejected"), float64(l.tr.rec.queries))
		}},
		layerMetric{"service.first_pair_p50_ms", "ms", func(l *layerInputs) float64 { return median(l.tr.rec.firstPair) }},
		layerMetric{"service.first_pair_tail_ms", "ms", func(l *layerInputs) float64 {
			_, v := tail(l.tr.rec.firstPair)
			return v
		}},
		cpuShare("cost"),
		cpuShare("device"),
		perQueryMetric("device.wall_busy_s", "s"),
		perQueryMetric("device.overlap_frac", "fraction"),
		perQueryMetric("device.retries", "count"),
		cpuShare("obs"),
		layerMetric{"obs.trace_overhead", "ratio", func(l *layerInputs) float64 {
			return ratio(l.tr.perQuery(ms(l.tr.cpu)), l.base.perQuery(ms(l.base.cpu)))
		}},
		cpuShare("bench"),
		layerMetric{"runtime.gc_cpu_share", "fraction", func(l *layerInputs) float64 { return l.cpu("gc") }},
		layerMetric{"runtime.heap_growth_kb_per_query", "KB", func(l *layerInputs) float64 {
			// The first checkpoint still holds set-up garbage; the
			// slope starts at the second.
			cps := l.tr.rec.checkpoints
			if len(cps) < 3 {
				return 0
			}
			first, last := cps[1], cps[len(cps)-1]
			return ratio(1024*(last.heapMB-first.heapMB), float64(last.queries-first.queries))
		}},
		layerMetric{"runtime.goroutines_end", "count", func(l *layerInputs) float64 { return float64(l.goroutines) }},
	)
	return list
}

func perLayer(base, tr *phase, gens []float64, goroutines int) map[string]metric {
	in := &layerInputs{base: base, tr: tr, gens: gens, goroutines: goroutines}
	out := map[string]metric{}
	for _, m := range layerMetrics() {
		if _, dup := out[m.name]; dup {
			panic(fmt.Sprintf("per-layer metric %s listed twice", m.name))
		}
		out[m.name] = metric{m.value(in), m.unit}
	}
	return out
}
