package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

var seriesLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? [^ ]+$`)

// parsePromText is a strict parser for the Prometheus text exposition
// format: it verifies HELP/TYPE pairing, that every series belongs to a
// declared family, and that every declared family carries at least one
// series (an empty family usually means an emitter lost its data source).
// It returns the set of series keys seen and each family's declared type.
func parsePromText(t *testing.T, body string) (map[string]bool, map[string]string) {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]bool{}
	families := map[string]string{}
	populated := map[string]bool{}
	series := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(text, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Errorf("line %d: HELP without text: %q", line, text)
			}
			if helped[fields[0]] {
				t.Errorf("line %d: duplicate HELP for %s", line, fields[0])
			}
			helped[fields[0]] = true
		case strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(text, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", line, text)
			}
			name, kind := fields[0], fields[1]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("line %d: unknown metric type %q", line, kind)
			}
			if !helped[name] {
				t.Errorf("line %d: TYPE %s without preceding HELP", line, name)
			}
			if typed[name] {
				t.Errorf("line %d: duplicate TYPE for %s", line, name)
			}
			typed[name] = true
			families[name] = kind
		case strings.HasPrefix(text, "#"):
			t.Errorf("line %d: unexpected comment %q", line, text)
		default:
			m := seriesLine.FindStringSubmatch(text)
			if m == nil {
				t.Errorf("line %d: malformed series line %q", line, text)
				continue
			}
			name := m[1]
			// Histogram child series belong to the declared family name.
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && typed[base] {
					family = base
				}
			}
			if !typed[family] {
				t.Errorf("line %d: series %s has no TYPE declaration", line, name)
			}
			populated[family] = true
			key := name + m[2]
			if series[key] {
				t.Errorf("line %d: duplicate series %s", line, key)
			}
			series[key] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name := range typed {
		if !populated[name] {
			t.Errorf("family %s declared but carries no series", name)
		}
	}
	return series, families
}

// TestMetricsWellFormed runs one job, scrapes /metrics, and asserts every
// exposed line parses as well-formed Prometheus text — HELP/TYPE pairing,
// no duplicate series — including the per-stage cycle and tile-class
// counters the simulator feeds in.
func TestMetricsWellFormed(t *testing.T) {
	srv, _ := newTestServer(t)
	_, jr := postJSON(t, srv.URL+"/v1/jobs?wait=1", `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 3}`)
	if jr.State != "done" {
		t.Fatalf("job did not finish: %+v", jr)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	series, families := parsePromText(t, string(raw))

	// The telemetry-plane histograms must expose with the histogram type and
	// full _bucket/_sum/_count series (including +Inf).
	for _, name := range []string{
		"resvc_http_request_duration_seconds",
		"resvc_sim_frame_eliminated_ratio",
		"resvc_stage_latency_seconds",
	} {
		if families[name] != "histogram" {
			t.Errorf("family %s type = %q, want histogram", name, families[name])
		}
	}
	if !series[`resvc_http_request_duration_seconds_bucket{route="/v1/jobs",status="200",le="+Inf"}`] {
		t.Error(`missing +Inf bucket for route="/v1/jobs",status="200" (the completed ?wait=1 submit)`)
	}
	if !series[`resvc_sim_frame_eliminated_ratio_count`] || !series[`resvc_sim_frame_eliminated_ratio_sum`] {
		t.Error("frame-elimination histogram missing _count/_sum series")
	}

	for _, stage := range []string{"vertex", "tiling", "sig-check", "raster", "fragment", "flush"} {
		key := fmt.Sprintf(`resvc_sim_stage_cycles_total{stage="%s"}`, stage)
		if !series[key] {
			t.Errorf("missing per-stage series %s", key)
		}
	}
	for _, class := range []string{"eq-color-eq-input", "eq-color-diff-input", "diff-color", "eq-input-diff-color"} {
		key := fmt.Sprintf(`resvc_sim_tile_class_total{class="%s"}`, class)
		if !series[key] {
			t.Errorf("missing tile-class series %s", key)
		}
	}
	for _, name := range []string{
		"resvc_sim_frames_total", "resvc_sim_tiles_total", "resvc_sim_tiles_skipped_total",
		"resvc_http_requests_total",
		// Failure-model counters: panics contained, checkpoint resumes,
		// load shedding, breaker rejections, frames actually executed.
		"resvc_jobs_panics_total", "resvc_jobs_resumed_total",
		"resvc_load_shed_total", "resvc_breaker_rejected_total",
		"resvc_sim_frames_executed_total",
	} {
		if !series[name] {
			t.Errorf("missing series %s", name)
		}
	}
	// The completed ccs job registers a (closed) per-benchmark breaker
	// circuit in the gauge.
	if !series[`resvc_breaker_open{benchmark="ccs"}`] {
		t.Error(`missing series resvc_breaker_open{benchmark="ccs"}`)
	}
	if v := metricValue(t, srv.URL, `resvc_breaker_open{benchmark="ccs"}`); v != 0 {
		t.Errorf("resvc_breaker_open{ccs} = %v, want 0 (closed)", v)
	}

	// The RE run on a redundant workload must actually report stage cycles
	// and skipped tiles, not just declare the families.
	if v := metricValue(t, srv.URL, `resvc_sim_stage_cycles_total{stage="sig-check"}`); v <= 0 {
		t.Errorf("sig-check cycles = %v, want > 0 after an RE run", v)
	}
	if v := metricValue(t, srv.URL, "resvc_sim_tiles_skipped_total"); v <= 0 {
		t.Errorf("tiles skipped = %v, want > 0 on ccs under RE", v)
	}
}

// TestDebugEndpoints covers the runtime-introspection satellite: expvar at
// /debug/vars (with build info, queue depth, cache size) and pprof.
func TestDebugEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	for _, key := range []string{"rendelim_build_info", "resvc_queue_depth", "resvc_cache_entries", "memstats"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	var build map[string]string
	if err := json.Unmarshal(vars["rendelim_build_info"], &build); err != nil {
		t.Fatalf("build info not an object: %v", err)
	}
	if build["go_version"] == "" || build["module"] != "rendelim" {
		t.Errorf("implausible build info %v", build)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}
}
