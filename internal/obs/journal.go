package obs

import (
	"sync"
	"time"
)

// JournalEvent is one notable service event: a job accepted, eliminated,
// forwarded, shed or panicked; store recovery; a peer health flip.
// Attrs carry the event's identifiers (job id, key, peer, trace id) as flat
// strings so the JSON at /debug/events needs no schema per kind.
type JournalEvent struct {
	Seq   uint64            `json:"seq"`
	Time  time.Time         `json:"time"`
	Kind  string            `json:"kind"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Journal is a fixed-size ring buffer of recent JournalEvents — the
// flight-recorder view of a node: cheap enough to leave always on, bounded
// by construction, and served as JSON at /debug/events. All methods are
// safe for concurrent use and no-ops on a nil receiver, so call sites wire
// it unconditionally.
type Journal struct {
	mu   sync.Mutex
	buf  []JournalEvent // ring storage; len == cap once full
	cap  int
	next int    // write position in buf
	seq  uint64 // monotonically increasing event id; survives wraps
}

// DefaultJournalSize is the ring capacity NewJournal(0) selects.
const DefaultJournalSize = 256

// NewJournal builds a journal holding the last capacity events (0 selects
// DefaultJournalSize).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalSize
	}
	return &Journal{cap: capacity}
}

// Record appends one event. kv lists attribute key/value pairs
// ("job", id, "key", sig); a trailing odd key is dropped.
func (j *Journal) Record(kind, msg string, kv ...string) {
	if j == nil {
		return
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev := JournalEvent{Seq: j.seq, Time: time.Now().UTC(), Kind: kind, Msg: msg, Attrs: attrs}
	if len(j.buf) < j.cap {
		j.buf = append(j.buf, ev)
	} else {
		j.buf[j.next] = ev
	}
	j.next = (j.next + 1) % j.cap
}

// Events returns the retained events, oldest first. The slice is a copy.
func (j *Journal) Events() []JournalEvent {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalEvent, 0, len(j.buf))
	if len(j.buf) < j.cap {
		out = append(out, j.buf...)
		return out
	}
	out = append(out, j.buf[j.next:]...)
	out = append(out, j.buf[:j.next]...)
	return out
}

// Len reports how many events are retained (at most the capacity).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// Seq returns the total number of events ever recorded, including those the
// ring has since overwritten.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}
