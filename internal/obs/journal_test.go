package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// journalLogger returns a logger whose records go to a text handler at
// level, through a Journal.
func journalLogger(w io.Writer, level slog.Level) (*slog.Logger, *Journal) {
	j := NewJournal(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
	return slog.New(j), j
}

func TestJournalRecordAndWrap(t *testing.T) {
	var out bytes.Buffer
	log, j := journalLogger(&out, slog.LevelInfo)
	const n = journalSize + 4
	for i := 0; i < n; i++ {
		log.Info("job accepted", "job", fmt.Sprintf("j-%d", i))
	}
	evs := j.Events()
	if len(evs) != journalSize {
		t.Fatalf("kept %d records, want the ring size %d", len(evs), journalSize)
	}
	// Oldest first, and only the last journalSize survive the wrap.
	for i, ev := range evs {
		if want := uint64(n - journalSize + 1 + i); ev.Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if last := evs[len(evs)-1]; last.Attrs["job"] != fmt.Sprintf("j-%d", n-1) || last.Msg != "job accepted" {
		t.Errorf("newest record = %+v", last)
	}
	// The wrapped handler still got every record.
	if got := strings.Count(out.String(), "job accepted"); got != n {
		t.Errorf("wrapped handler wrote %d lines, want %d", got, n)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if j.Events() != nil {
		t.Error("nil journal has events")
	}
}

func TestJournalJSONShape(t *testing.T) {
	log, j := journalLogger(io.Discard, slog.LevelInfo)
	log.Warn("peer down", "peer", "10.0.0.2:8080")
	raw, err := json.Marshal(j.Events())
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0]["level"] != "WARN" || back[0]["msg"] != "peer down" {
		t.Fatalf("journal JSON %s", raw)
	}
	if attrs, _ := back[0]["attrs"].(map[string]any); attrs["peer"] != "10.0.0.2:8080" {
		t.Fatalf("journal JSON %s", raw)
	}
}

func TestJournalConcurrent(t *testing.T) {
	log, j := journalLogger(io.Discard, slog.LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				log.Info("m")
				if i%32 == 0 {
					_ = j.Events()
				}
			}
		}()
	}
	wg.Wait()
	evs := j.Events()
	if len(evs) != journalSize {
		t.Fatalf("kept %d records, want %d", len(evs), journalSize)
	}
	if got := evs[len(evs)-1].Seq; got != 4000 {
		t.Fatalf("newest seq = %d, want 4000", got)
	}
}

// The journal keeps what the logger emits and nothing else: records below
// the wrapped handler's level are not kept, and attributes bound through
// With and WithGroup appear on the records derived loggers emit.
func TestJournalKeepsWhatTheLoggerEmits(t *testing.T) {
	log, j := journalLogger(io.Discard, slog.LevelInfo)
	log.Warn("job shed", "id", "j-1")
	for i := 0; i < 2*journalSize; i++ {
		log.Debug("job eliminated", "id", i)
	}
	log.With("node", "a").WithGroup("req").Info("served", "status", 200, slog.Group("t", "ms", 5))
	evs := j.Events()
	if len(evs) != 2 || evs[0].Msg != "job shed" || evs[0].Level != "WARN" {
		t.Fatalf("events = %+v, want the warning and the info record only", evs)
	}
	want := map[string]string{"node": "a", "req.status": "200", "req.t.ms": "5"}
	if got := evs[1].Attrs; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("attrs = %v, want %v", got, want)
	}
}
