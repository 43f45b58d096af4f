package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceparentHeader is the W3C Trace Context header carrying the
// trace-id/span-id pair across HTTP hops (lowercase per the spec).
const TraceparentHeader = "traceparent"

// TraceContext identifies one request within one distributed trace, in the
// W3C Trace Context model: TraceID names the whole end-to-end request no
// matter how many nodes it crosses, SpanID names the current hop. The zero
// value is invalid (the spec forbids all-zero ids).
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
}

// NewTraceContext generates a fresh trace with a random trace and span id.
func NewTraceContext() TraceContext {
	var tc TraceContext
	mustRand(tc.TraceID[:])
	mustRand(tc.SpanID[:])
	return tc
}

// Child derives the next hop: same trace, new span id. Use it when
// forwarding a request so each hop is distinguishable inside one trace.
func (tc TraceContext) Child() TraceContext {
	child := TraceContext{TraceID: tc.TraceID}
	mustRand(child.SpanID[:])
	return child
}

// Valid reports whether both ids are non-zero, as the spec requires.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// TraceIDString renders the 32-hex-char trace id.
func (tc TraceContext) TraceIDString() string { return hex.EncodeToString(tc.TraceID[:]) }

// SpanIDString renders the 16-hex-char span id.
func (tc TraceContext) SpanIDString() string { return hex.EncodeToString(tc.SpanID[:]) }

// Traceparent renders the header value: version 00, sampled flag set.
func (tc TraceContext) Traceparent() string {
	return "00-" + tc.TraceIDString() + "-" + tc.SpanIDString() + "-01"
}

// ParseTraceparent parses a traceparent header value by the W3C Trace
// Context grammar: version-traceid-parentid-flags, in lowercase hex of 2,
// 32, 16 and 2 digits. Version 00 is exactly those 55 bytes. A higher
// version may carry more after the flags, but only behind a dash (the
// spec's forward-compatibility rule). Version ff and all-zero ids are
// rejected.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	var version, flags [1]byte
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' ||
		!unhex(version[:], s[:2]) || !unhex(tc.TraceID[:], s[3:35]) ||
		!unhex(tc.SpanID[:], s[36:52]) || !unhex(flags[:], s[53:55]) {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: want version-traceid-spanid-flags in lowercase hex", s)
	}
	switch {
	case version[0] == 0xff:
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: forbidden version ff", s)
	case version[0] == 0 && len(s) != 55:
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: version 00 has exactly four fields", s)
	case len(s) > 55 && s[55] != '-':
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: flags must end the value or precede a dash", s)
	case !tc.Valid():
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: all-zero id", s)
	}
	return tc, nil
}

// unhex decodes s, exactly 2*len(dst) lowercase hex digits, into dst.
func unhex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) || strings.ToLower(s) != s {
		return false
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// mustRand fills b from crypto/rand; the reader failing means the platform
// is broken beyond what graceful degradation could help.
func mustRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("obs: crypto/rand failed: %v", err))
	}
}

// traceCtxKey keys a TraceContext inside a context.Context.
type traceCtxKey struct{}

// ContextWithTrace attaches tc to ctx; handlers store the request's trace
// context here so downstream layers (the cluster forwarding client, loggers)
// can pick it up without threading it explicitly.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the trace context attached by ContextWithTrace.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}
