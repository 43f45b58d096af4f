package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatal("fresh trace context invalid")
	}
	hdr := tc.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q lacks version/flags framing", hdr)
	}
	got, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
}

func TestTraceContextChild(t *testing.T) {
	tc := NewTraceContext()
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Error("child changed the trace id")
	}
	if child.SpanID == tc.SpanID {
		t.Error("child kept the parent span id")
	}
	if !child.Valid() {
		t.Error("child invalid")
	}
}

// badTraceparents are header values ParseTraceparent must reject.
var badTraceparents = []string{
	"",
	"00-abc",
	"00-" + strings.Repeat("0", 32) + "-1111111111111111-01", // zero trace id
	"00-" + strings.Repeat("1", 32) + "-0000000000000000-01", // zero span id
	"ff-" + strings.Repeat("1", 32) + "-1111111111111111-01", // forbidden version
	"zz-" + strings.Repeat("1", 32) + "-1111111111111111-01", // non-hex version
	"00-shorttrace-1111111111111111-01",
	"00-" + strings.Repeat("1", 32) + "-1111111111111111-zz",       // non-hex flags
	"00-" + strings.Repeat("1", 32) + "-1111111111111111-",         // empty flags
	"00-" + strings.Repeat("1", 32) + "-1111111111111111-001",      // three-digit flags
	"00-" + strings.Repeat("1", 32) + "-1111111111111111-01-extra", // fifth field in version 00
	"00-" + strings.Repeat("A", 32) + "-1111111111111111-01",       // uppercase trace id
	"00-" + strings.Repeat("1", 32) + "-BBBBBBBBBBBBBBBB-01",       // uppercase span id
	"01-" + strings.Repeat("2", 32) + "-3333333333333333-01.what",  // future version, no dash after flags
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, bad := range badTraceparents {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	// Future versions with extra fields are accepted (forward compatibility).
	future := "01-" + strings.Repeat("2", 32) + "-3333333333333333-01-extrafield"
	if _, err := ParseTraceparent(future); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

// FuzzParseTraceparent: no input panics, an accepted version-00 value is
// exactly 55 bytes of lowercase hex and dashes, and the accepted ids render
// to a value that parses back to the same ids.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(NewTraceContext().Traceparent())
	f.Add("01-" + strings.Repeat("2", 32) + "-3333333333333333-01-extrafield")
	for _, bad := range badTraceparents {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if strings.HasPrefix(s, "00") && (len(s) != 55 || strings.Trim(s, "0123456789abcdef-") != "") {
			t.Fatalf("accepted version-00 value %q is not 55 bytes of [0-9a-f-]", s)
		}
		got, err := ParseTraceparent(tc.Traceparent())
		if err != nil || got != tc {
			t.Fatalf("%q: round trip gave %+v, %v; want %+v", s, got, err, tc)
		}
	})
}

func TestTraceContextInContext(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("empty context reported a trace")
	}
	tc := NewTraceContext()
	ctx := ContextWithTrace(context.Background(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v, %v", got, ok)
	}
}

func TestTracerProcessTaggingAndMerge(t *testing.T) {
	a := NewTracer()
	a.SetProcess(2, "node-a")
	ta := a.Thread("http")
	ta.BeginArgStr("POST /jobs", "trace", "deadbeef")
	ta.End()

	b := NewTracer()
	b.SetProcess(3, "node-b")
	tb := b.Thread("http")
	tb.Begin("POST /jobs")
	tb.End()

	merged := MergeTraces(a.TraceFileOf(), b.TraceFileOf())
	raw, err := json.Marshal(merged)
	if err != nil {
		t.Fatalf("merged trace does not serialize: %v", err)
	}
	var back TraceFile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	pids := map[int]bool{}
	var procNames []string
	var sawArg bool
	for _, e := range back.TraceEvents {
		pids[e.PID] = true
		if e.Name == "process_name" {
			procNames = append(procNames, e.Args["name"].(string))
		}
		if e.Args != nil && e.Args["trace"] == "deadbeef" {
			sawArg = true
		}
	}
	if !pids[2] || !pids[3] {
		t.Errorf("merged trace pids %v, want both 2 and 3", pids)
	}
	if len(procNames) != 2 {
		t.Errorf("process_name metadata %v, want one per node", procNames)
	}
	if !sawArg {
		t.Error("BeginArgStr argument lost in serialization")
	}
}

func TestSpanPoolConcurrentTracks(t *testing.T) {
	tr := NewTracer()
	p := NewSpanPool(tr, "hop")
	t1, t2 := p.Get(), p.Get()
	if t1 == nil || t2 == nil || t1 == t2 {
		t.Fatalf("pool handed out %v and %v, want two distinct threads", t1, t2)
	}
	p.Put(t1)
	if got := p.Get(); got != t1 {
		t.Error("pool did not reuse the returned thread")
	}
	// A nil tracer yields nil threads whose methods are no-ops.
	var nilPool *SpanPool
	th := nilPool.Get()
	th.Begin("x")
	th.End()
	nilPool.Put(th)
}
