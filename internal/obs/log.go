// Package obs is the observability spine of the repo: a process-wide
// structured logger on log/slog, a low-overhead span tracer that emits
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing), a
// Journal that keeps a service's recent log records for /debug/events, and
// expvar build info. Every command and
// service layer logs through here, and the simulator's pipeline stages are
// traced through here — the same per-stage attribution lens the paper's
// evaluation (Figure 15) applies to tiles and traffic.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Environment fallbacks for the -log-level / -log-format flags, so services
// deployed without flag access (containers, CI) can still tune verbosity.
const (
	EnvLogLevel  = "RENDELIM_LOG_LEVEL"
	EnvLogFormat = "RENDELIM_LOG_FORMAT"
)

// ParseLevel maps a level name to its slog.Level. Accepted: debug, info,
// warn, error (case-insensitive).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger builds a logger writing to w. format selects the handler:
// "text" (default) or "json". Unknown levels or formats are an error so a
// typo'd flag fails loudly instead of silencing logs.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	return slog.New(h), nil
}

// Setup resolves level and format (flag value first, environment second),
// builds a stderr logger, and installs it as the process default so every
// package logging through slog.Default picks it up.
func Setup(level, format string) (*slog.Logger, error) {
	if level == "" {
		level = os.Getenv(EnvLogLevel)
	}
	if format == "" {
		format = os.Getenv(EnvLogFormat)
	}
	l, err := NewLogger(os.Stderr, level, format)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(l)
	return l, nil
}
