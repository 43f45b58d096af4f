package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rendelim/internal/jobs"
	"rendelim/internal/promtext"
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
		// Failure-model counters: panics contained, load shedding, frames
		// actually executed.
		"resvc_jobs_panics_total",
		"resvc_load_shed_total",
		"resvc_sim_frames_executed_total",
	} {
		if !series[name] {
			t.Errorf("missing series %s", name)
		}
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

// TestDebugEndpoints covers runtime introspection: expvar at /debug/vars
// (build info and Go's runtime vars, no node state) and pprof.
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
	for _, key := range []string{"rendelim_build_info", "memstats"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	// Node state lives in /v1/metrics only.
	for key := range vars {
		if strings.HasPrefix(key, "resvc_") {
			t.Errorf("/debug/vars mirrors %q; read it from /v1/metrics", key)
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

// familySet reads every family the expositions declare and returns each
// one's type and the label keys its samples carry, as "type{k1,k2}".
func familySet(t *testing.T, bodies ...string) map[string]string {
	t.Helper()
	types := map[string]string{}
	keys := map[string]map[string]bool{}
	for _, body := range bodies {
		m, err := promtext.Parse(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range m.Families {
			types[name] = f.Type
			if keys[name] == nil {
				keys[name] = map[string]bool{}
			}
		}
		for _, s := range m.Samples {
			family := s.Name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(s.Name, suffix); base != s.Name && m.Families[base].Type == "histogram" {
					family = base
				}
			}
			if keys[family] == nil {
				t.Fatalf("sample %s belongs to no declared family", s.Name)
			}
			for k := range s.Labels {
				keys[family][k] = true
			}
		}
	}
	out := make(map[string]string, len(types))
	for name, typ := range types {
		var ks []string
		for k := range keys[name] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out[name] = typ + "{" + strings.Join(ks, ",") + "}"
	}
	return out
}

// TestMetricsFamilySet pins every /v1/metrics family, with its type and
// label keys, that a store-backed three-node cluster exposes after one
// forwarded job, over all three nodes. restat, perfbench and dashboards
// address families by these names, types and labels.
func TestMetricsFamilySet(t *testing.T) {
	nodes := startCluster(t, 3, 0, 0, func(t *testing.T) jobs.Option {
		return jobs.WithStore(openRecoveryStore(t, t.TempDir()))
	})
	body, key := clusterSpec()
	sender := nodes[0]
	if sender.clus.IsSelf(sender.clus.Owner(key)) {
		sender = nodes[1]
	}
	if code, jr := postJob(t, sender, body); code != http.StatusOK || jr.State != "done" {
		t.Fatalf("forwarded submit: status %d, %+v", code, jr)
	}
	var bodies []string
	for _, nd := range nodes {
		bodies = append(bodies, scrape(t, nd))
	}
	got := familySet(t, bodies...)
	want := map[string]string{
		"resvc_cache_hit_ratio":                "gauge{}",
		"resvc_cluster_degraded_total":         "counter{}",
		"resvc_cluster_forward_errors_total":   "counter{}",
		"resvc_cluster_forward_seconds":        "histogram{le}",
		"resvc_cluster_forwarded_total":        "counter{}",
		"resvc_cluster_health_checks_total":    "counter{}",
		"resvc_cluster_members":                "gauge{}",
		"resvc_cluster_peer_up":                "gauge{peer}",
		"resvc_cluster_readthrough_entries":    "gauge{}",
		"resvc_cluster_readthrough_hits_total": "counter{}",
		"resvc_cluster_remote_hits_total":      "counter{}",
		// Ring ownership, which /debug/vars used to carry.
		"resvc_cluster_ring_share":                "gauge{peer}",
		"resvc_cluster_status_forwarded_total":    "counter{}",
		"resvc_http_request_duration_seconds":     "histogram{le,route,status}",
		"resvc_http_requests_total":               "counter{}",
		"resvc_job_elimination_ratio":             "gauge{}",
		"resvc_jobs_cache_hits_total":             "counter{}",
		"resvc_jobs_completed_total":              "counter{}",
		"resvc_jobs_deduped_total":                "counter{}",
		"resvc_jobs_failed_total":                 "counter{}",
		"resvc_jobs_inflight_joins_total":         "counter{}",
		"resvc_jobs_panics_total":                 "counter{}",
		"resvc_jobs_running":                      "gauge{}",
		"resvc_jobs_submitted_total":              "counter{}",
		"resvc_jobs_timeouts_total":               "counter{}",
		"resvc_load_shed_total":                   "counter{}",
		"resvc_queue_depth":                       "gauge{}",
		"resvc_result_cache_entries":              "gauge{}",
		"resvc_sim_frame_eliminated_ratio":        "histogram{le}",
		"resvc_sim_frames_executed_total":         "counter{}",
		"resvc_sim_frames_total":                  "counter{}",
		"resvc_sim_stage_cycles_total":            "counter{stage}",
		"resvc_sim_tile_class_total":              "counter{class}",
		"resvc_sim_tiles_skipped_total":           "counter{}",
		"resvc_sim_tiles_total":                   "counter{}",
		"resvc_singleflight_inflight":             "gauge{}",
		"resvc_stage_latency_seconds":             "histogram{le,stage}",
		"resvc_store_checkpoints_recovered_total": "counter{}",
		"resvc_store_jobs_recovered_total":        "counter{}",
		"resvc_store_jobs_resumed_total":          "counter{}",
		"resvc_store_rename_errors_total":         "counter{}",
		"resvc_store_results_loaded_total":        "counter{}",
		"resvc_store_snapshots_quarantined_total": "counter{}",
		"resvc_store_snapshots_written_total":     "counter{}",
		"resvc_store_sync_errors_total":           "counter{}",
		"resvc_store_write_errors_total":          "counter{}",
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("family %s (%s) is gone", name, w)
		} else if g != w {
			t.Errorf("family %s is %s, want %s", name, g, w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unpinned family %s (%s)", name, g)
		}
	}
}
