package main

import "strconv"

// endToEndUnits lists every end-to-end metric with its unit; BENCHMARK.json
// at the repository root lists the same names (TestMetricTablesMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"peak_rss_mb":       "MB",
	"relu_rows_per_s":   "1/s",
	"tanh_rows_per_s":   "1/s",
	"gru_seqs_per_s":    "1/s",
	"single_p50_us":     "us",
	"batch_rows_per_s":  "1/s",
	"ingest_per_s":      "1/s",
	"snapshot_s":        "s",
	"restore_s":         "s",
	"bytes_per_session": "bytes",
}

// perLayerUnits lists every metric of a traced run.
var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, net := range []string{"relu", "tanh"} {
		for i := 0; i < scoreLayers; i++ {
			m["score.core."+net+".l"+strconv.Itoa(i)+"_ns_per_row"] = "ns"
		}
		m["score.tensor."+net+".matmul_ns_per_row"] = "ns"
		m["score.stats."+net+".act_ns_per_row"] = "ns"
		m["score."+net+".alloc_bytes_per_row"] = "bytes"
		m["score."+net+".layer_residual_pct"] = "%"
		m["score."+net+".trace_overhead_pct"] = "%"
	}
	m["score.gru.alloc_bytes_per_seq"] = "bytes"
	m["score.gc_pause_ms"] = "ms"
	for _, ph := range []string{"single", "batch"} {
		m["gateway.server."+ph+".http_us"] = "us"
		m["gateway.registry."+ph+".host_us"] = "us"
		m["gateway.serve."+ph+".queue_wait_us"] = "us"
		m["gateway.serve."+ph+".rows_per_flush"] = "rows"
		m["gateway.core."+ph+".propagate_ns_per_row"] = "ns"
		m["gateway.server."+ph+".cpu_us_per_row"] = "us"
		m["gateway."+ph+".residual_pct"] = "%"
	}
	m["gateway.client.cpu_us_per_request"] = "us"
	m["gateway.server.start_s"] = "s"
	m["gateway.server.peak_rss_mb"] = "MB"
	m["gateway.trace_scrape_ms"] = "ms"
	m["fleet.session.ingest_self_ns"] = "ns"
	m["fleet.core.predict_us_per_window"] = "us"
	m["fleet.session.windows"] = "count"
	m["fleet.session.escalated"] = "count"
	m["fleet.session.snapshot_bytes"] = "bytes"
	m["fleet.restore_alloc_mb"] = "MB"
	m["fleet.alloc_bytes_per_sample"] = "bytes"
	m["fleet.gc_pause_ms"] = "ms"
	m["fleet.trace_overhead_pct"] = "%"
	return m
}()
