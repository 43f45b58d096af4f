package server

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rendelim/internal/apihttp"
	"rendelim/internal/obs"
)

// TestClusterTracePropagation is the end-to-end acceptance check for the
// distributed-tracing plane: a job submitted to a node that does NOT own its
// signature must yield ONE trace id that is visible in the JobResponse, in
// both the sender's and the owner's request logs, and whose two nodes' span
// streams merge into a single valid Chrome trace with both node pids.
func TestClusterTracePropagation(t *testing.T) {
	nodes := startCluster(t, 3, 0, 0)
	body, key := clusterSpec()

	var owner, sender *clusterNode
	for _, nd := range nodes {
		if nd.clus.IsSelf(nd.clus.Owner(key)) {
			owner = nd
			break
		}
	}
	if owner == nil {
		t.Fatal("no node owns the test key")
	}
	for _, nd := range nodes {
		if nd != owner {
			sender = nd
			break
		}
	}

	status, jr := postJob(t, sender, body)
	if status != http.StatusOK || jr.State != "done" {
		t.Fatalf("forwarded submit: status %d, state %q", status, jr.State)
	}
	if jr.Node != owner.addr {
		t.Fatalf("job ran on %q, want owner %q", jr.Node, owner.addr)
	}
	if len(jr.Trace) != 32 {
		t.Fatalf("JobResponse.Trace = %q, want a 32-hex trace id", jr.Trace)
	}

	// The same trace id must appear in both nodes' request logs: the sender
	// minted it, the owner honored the forwarded traceparent header.
	for _, nd := range []*clusterNode{sender, owner} {
		if !strings.Contains(nd.logs.String(), jr.Trace) {
			t.Errorf("node %s log does not mention trace id %s:\n%s", nd.addr, jr.Trace, nd.logs.String())
		}
	}

	// A status lookup proxied back to the owner continues the same pattern:
	// whatever trace that request runs under is reported back to the caller.
	resp, err := http.Get(sender.ts.URL + jr.Location)
	if err != nil {
		t.Fatal(err)
	}
	var follow apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&follow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(follow.Trace) != 32 || follow.Trace == jr.Trace {
		t.Errorf("status lookup trace = %q, want a fresh 32-hex id (submit used %s)", follow.Trace, jr.Trace)
	}

	// Merge the two nodes' span streams into one Chrome trace: it must be
	// valid JSON and carry events from both node pids plus both
	// process_name metadata records.
	merged := obs.MergeTraces(sender.tracer.TraceFileOf(), owner.tracer.TraceFileOf())
	raw, err := json.Marshal(merged)
	if err != nil {
		t.Fatalf("merged trace does not serialize: %v", err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	names := 0
	for _, ev := range decoded.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
		if ev["name"] == "process_name" {
			names++
		}
	}
	if len(pids) != 2 || names != 2 {
		t.Errorf("merged trace has pids %v and %d process_name records, want 2 and 2", pids, names)
	}

	// CI uploads the merged trace as a workflow artifact when asked.
	if dir := os.Getenv("TRACE_ARTIFACT_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "cluster-trace.json"), raw, 0o644); err != nil {
			t.Logf("writing trace artifact: %v", err)
		}
	}

	// The journals saw the hop from both sides: the sender logged the
	// forward, the owner queued and ran the job.
	msgs := func(nd *clusterNode) map[string]bool {
		out := map[string]bool{}
		for _, ev := range nd.journal.Events() {
			out[ev.Msg] = true
		}
		return out
	}
	if m := msgs(sender); !m["job forwarded"] {
		t.Errorf("sender journal messages %v missing job forwarded", m)
	}
	if m := msgs(owner); !m["job queued"] {
		t.Errorf("owner journal messages %v missing job queued", m)
	}

	// And /debug/events serves the same stream over HTTP.
	eresp, err := http.Get(sender.ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	eraw, err := io.ReadAll(eresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(eraw, &events); err != nil {
		t.Fatalf("/debug/events not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("/debug/events empty after a forwarded submit")
	}
	if dir := os.Getenv("TRACE_ARTIFACT_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "events.json"), eraw, 0o644); err != nil {
			t.Logf("writing events artifact: %v", err)
		}
	}
}
