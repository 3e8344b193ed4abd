package main

// optional lists, with their units, the per-layer metrics that only some
// workloads produce. A traced run reports zero for the ones its workload
// does not exercise: those are the layers predicted not to move on it.
var optional = map[string]string{
	"ratio.warm_speedup":      "ratio",
	"ratio.obs_overhead_pct":  "%",
	"ratio.mine_vs_reference": "ratio",
	"ratio.triage_speedup":    "ratio",
	"eval.memo_hits":          "count",
	"eval.memo_misses":        "count",
	"eval.memo_coalesced":     "count",
	"eval.memo_hit_ratio":     "ratio",
	"sweep.cells":             "count",
	"sweep.oracle_cells":      "count",
	"sweep.predicted_cells":   "count",
	"sweep.steals":            "count",
	"sweep.failed":            "count",
	"sweep.hv_regret_pct":     "%",
	"costmodel.train_samples": "count",
	"serve.submit_ms":         "ms",
	"serve.queue_wait_ms":     "ms",
	"serve.exec_ms":           "ms",
	"serve.notify_ms":         "ms",
	"serve.journal_bytes":     "B",
	"serve.rejected":          "count",
	"serve.retries":           "count",
	"serve.direct_ms":         "ms",
	"serve.overhead_ms":       "ms",
}

func fillAbsent(out *outcome) {
	for name, unit := range optional {
		if _, ok := out.metrics[name]; !ok {
			out.set(name, 0, unit)
		}
	}
}
