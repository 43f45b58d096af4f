package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// JournalEvent is one log record as /debug/events serves it: the record's
// level, message and attributes, with attributes flattened to strings
// (group members as "group.key") so the JSON needs no schema per message.
type JournalEvent struct {
	Seq   uint64            `json:"seq"`
	Time  time.Time         `json:"time"`
	Level string            `json:"level"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// journalSize is how many records a Journal keeps.
const journalSize = 256

// Journal is a node's flight recorder: a slog.Handler that passes every
// record to the handler it wraps and keeps the last journalSize of them for
// /debug/events. It sees exactly what the logger emits, at the wrapped
// handler's level, so an event is logged once and recorded by that same
// call, and records below the log level never push warnings out of the
// ring. Handlers derived through WithAttrs and WithGroup share the ring.
// Events is safe for concurrent use and returns nil on a nil Journal.
type Journal struct {
	inner  slog.Handler
	ring   *journalRing
	attrs  map[string]string // bound by WithAttrs, already group-qualified
	prefix string            // open groups, as "a.b."
}

type journalRing struct {
	mu   sync.Mutex
	buf  []JournalEvent // ring storage; len == journalSize once full
	next int            // write position in buf
	seq  uint64         // records ever kept; survives wraps
}

// NewJournal wraps inner, the node's log handler.
func NewJournal(inner slog.Handler) *Journal {
	return &Journal{inner: inner, ring: &journalRing{}}
}

// Enabled reports whether the wrapped handler takes records at level.
func (j *Journal) Enabled(ctx context.Context, level slog.Level) bool {
	return j.inner.Enabled(ctx, level)
}

// Handle keeps r in the ring, then passes it to the wrapped handler.
func (j *Journal) Handle(ctx context.Context, r slog.Record) error {
	ev := JournalEvent{Time: r.Time.UTC(), Level: r.Level.String(), Msg: r.Message}
	if len(j.attrs) > 0 || r.NumAttrs() > 0 {
		ev.Attrs = make(map[string]string, len(j.attrs)+r.NumAttrs())
		for k, v := range j.attrs {
			ev.Attrs[k] = v
		}
		r.Attrs(func(a slog.Attr) bool {
			flatten(ev.Attrs, j.prefix, a)
			return true
		})
	}
	j.ring.add(ev)
	return j.inner.Handle(ctx, r)
}

// WithAttrs returns a Journal over inner.WithAttrs(attrs) that adds attrs
// to every record it keeps.
func (j *Journal) WithAttrs(attrs []slog.Attr) slog.Handler {
	bound := make(map[string]string, len(j.attrs)+len(attrs))
	for k, v := range j.attrs {
		bound[k] = v
	}
	for _, a := range attrs {
		flatten(bound, j.prefix, a)
	}
	return &Journal{inner: j.inner.WithAttrs(attrs), ring: j.ring, attrs: bound, prefix: j.prefix}
}

// WithGroup returns a Journal over inner.WithGroup(name) that qualifies
// later attributes with name.
func (j *Journal) WithGroup(name string) slog.Handler {
	if name == "" {
		return j
	}
	return &Journal{inner: j.inner.WithGroup(name), ring: j.ring, attrs: j.attrs, prefix: j.prefix + name + "."}
}

// flatten stores a under prefix+key, descending into groups.
func flatten(dst map[string]string, prefix string, a slog.Attr) {
	v := a.Value.Resolve()
	if v.Kind() != slog.KindGroup {
		if a.Key != "" {
			dst[prefix+a.Key] = v.String()
		}
		return
	}
	if a.Key != "" {
		prefix += a.Key + "."
	}
	for _, ga := range v.Group() {
		flatten(dst, prefix, ga)
	}
}

func (r *journalRing) add(ev JournalEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	if len(r.buf) < journalSize {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
	}
	r.next = (r.next + 1) % journalSize
}

// Events returns the kept records, oldest first. The slice is a copy.
func (j *Journal) Events() []JournalEvent {
	if j == nil {
		return nil
	}
	r := j.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JournalEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
