package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// End-to-end over a real loopback listener: start the daemon, submit the
// same job twice, assert the second is eliminated by the signature cache,
// then shut down gracefully via the signal path.
func TestDaemonEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s"}, ready, sigs, false)
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Health must respond before any job.
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 2}`
	post := func() map[string]any {
		resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := post()
	if first["state"] != "done" {
		t.Fatalf("first job: %+v", first)
	}
	second := post()
	if second["deduped"] != true {
		t.Errorf("second submission not eliminated: %+v", second)
	}

	mresp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), "resvc_jobs_deduped_total 1") {
		t.Errorf("metrics missing dedup count:\n%s", raw)
	}

	// /debug/events holds what the daemon logged at its default info
	// level: the listening record, and none of the per-job debug records.
	eresp, err := http.Get(base + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	var events []struct{ Level, Msg string }
	err = json.NewDecoder(eresp.Body).Decode(&events)
	eresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	msgs := map[string]bool{}
	for _, ev := range events {
		msgs[ev.Msg] = true
	}
	if !msgs["listening"] || msgs["job eliminated"] {
		t.Errorf("/debug/events = %+v, want the info records the daemon logged and no debug ones", events)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestDaemonDataDirSurvivesRestart runs the full binary path twice on one
// -data-dir: the second daemon must serve the first daemon's job as an
// elimination hit with the recovery visible on /metrics.
func TestDaemonDataDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"alias": "ctr", "tech": "re", "width": 96, "height": 64, "frames": 2}`

	boot := func() (string, chan os.Signal, chan error) {
		t.Helper()
		ready := make(chan string, 1)
		sigs := make(chan os.Signal, 1)
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s",
				"-data-dir", dir, "-log-level", "error"}, ready, sigs, false)
		}()
		select {
		case addr := <-ready:
			return "http://" + addr, sigs, done
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
		panic("unreachable")
	}
	post := func(base string) map[string]any {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	stop := func(sigs chan os.Signal, done chan error) {
		t.Helper()
		sigs <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}

	base, sigs, done := boot()
	if first := post(base); first["state"] != "done" {
		t.Fatalf("first life: %+v", first)
	}
	stop(sigs, done)

	base, sigs, done = boot()
	again := post(base)
	if again["deduped"] != true {
		t.Fatalf("restarted daemon did not eliminate the recovered job: %+v", again)
	}
	mresp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), "resvc_store_results_recovered_total 1") {
		t.Errorf("metrics missing store recovery count:\n%s", raw)
	}
	stop(sigs, done)
}
