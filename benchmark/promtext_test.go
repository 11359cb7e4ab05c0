package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP apds_serve_batch_rows Rows per coalesced flush batch.
# TYPE apds_serve_batch_rows histogram
apds_serve_batch_rows_bucket{le="1"} 10
apds_serve_batch_rows_bucket{le="+Inf"} 12
apds_serve_batch_rows_sum 20
apds_serve_batch_rows_count 12
apds_propagate_layer_seconds_sum{layer="0"} 0.5
apds_propagate_layer_seconds_sum{layer="1"} 0.25
apds_propagate_layer_seconds_count{layer="0"} 12
apds_http_requests_total{route="/v1/models/{name}/predict",code="200"} 100 1700000000000
apds_serve_queue_wait_seconds_sum 0.001
apds_serve_queue_wait_seconds_count 12
`

const scrapeAfter = `apds_serve_batch_rows_bucket{le="1"} 30
apds_serve_batch_rows_bucket{le="+Inf"} 40
apds_serve_batch_rows_sum 100
apds_serve_batch_rows_count 40
apds_propagate_layer_seconds_sum{layer="0"} 1.5
apds_propagate_layer_seconds_sum{layer="1"} 1.25
apds_propagate_layer_seconds_count{layer="0"} 40
apds_http_requests_total{route="/v1/models/{name}/predict",code="200"} 128 1700000000001
apds_serve_queue_wait_seconds_sum 0.015
apds_serve_queue_wait_seconds_count 40
`

func TestPromDeltas(t *testing.T) {
	before, err := parsePromText(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parsePromText(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	if v := before[`apds_serve_batch_rows_bucket{le="+Inf"}`]; v != 12 {
		t.Errorf("+Inf bucket = %v, want 12", v)
	}
	if d := promDelta(before, after, "apds_propagate_layer_seconds_sum"); d != 2 {
		t.Errorf("layer-seconds delta summed over layers = %v, want 2", d)
	}
	if d := promDelta(before, after, "apds_http_requests_total"); d != 28 {
		t.Errorf("labelled counter with timestamp: delta = %v, want 28", d)
	}
	if m, ok := histMeanDelta(before, after, "apds_serve_batch_rows"); !ok || m != 80.0/28 {
		t.Errorf("rows per flush = %v, %v; want %v", m, ok, 80.0/28)
	}
	if m, ok := histMeanDelta(before, after, "apds_serve_queue_wait_seconds"); !ok || math.Abs(m-0.014/28) > 1e-18 {
		t.Errorf("queue wait = %v, %v; want %v", m, ok, 0.014/28)
	}
	// A family name must not match a longer name sharing its prefix.
	if d := promDelta(before, after, "apds_serve_batch_rows"); d != 0 {
		t.Errorf("bare family name matched its _sum/_count series: %v", d)
	}
	if _, ok := histMeanDelta(before, before, "apds_serve_batch_rows"); ok {
		t.Error("no observations between identical scrapes must not yield a mean")
	}
}

func TestPromTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"apds_x{le=\"1\" 3\n",
		"apds_x notanumber\n",
		"apds_x 1 2 3\n",
	} {
		if _, err := parsePromText(bad); err == nil {
			t.Errorf("parsePromText(%q) accepted malformed text", bad)
		}
	}
}
