// Package promtext writes and parses the Prometheus text exposition format
// without any client library. Writer is the one encoder every /v1/metrics
// family goes through; Parse is its inverse, which cmd/restat and perfbench
// use to scrape live nodes. Both cover the subset the repo emits: HELP and
// TYPE comment lines, and series lines with optional quoted labels. Parse
// does not handle exemplars, timestamps, escaped newlines inside HELP text,
// or the OpenMetrics extensions.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rendelim/internal/stats"
)

// Sample is one series sample: a metric name, its label set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the named label value ("" when absent).
func (s Sample) Label(k string) string { return s.Labels[k] }

// Family is one metric family's metadata from its HELP/TYPE lines.
type Family struct {
	Name string
	Type string // counter | gauge | histogram | untyped
	Help string
}

// Metrics is one parsed exposition.
type Metrics struct {
	Families map[string]Family
	Samples  []Sample
}

// Parse reads one text exposition. Malformed lines are errors, not skips:
// restat doubles as an end-to-end check that the emitters stay well-formed.
func Parse(r io.Reader) (*Metrics, error) {
	m := &Metrics{Families: make(map[string]Family)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := m.parseComment(line); err != nil {
				return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		m.Samples = append(m.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	return m, nil
}

func (m *Metrics) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("HELP line without metric name: %q", line)
		}
		f := m.Families[fields[2]]
		f.Name = fields[2]
		if len(fields) == 4 {
			f.Help = fields[3]
		}
		m.Families[fields[2]] = f
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("TYPE line needs name and type: %q", line)
		}
		f := m.Families[fields[2]]
		f.Name = fields[2]
		f.Type = fields[3]
		m.Families[fields[2]] = f
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced braces: %q", line)
		}
		s.Name = line[:i]
		var err error
		if s.Labels, err = parseLabels(line[i+1 : j]); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return s, fmt.Errorf("want `name value`: %q", line)
		}
		s.Name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels splits `k1="v1",k2="v2"` respecting quotes and \-escapes.
func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	for i := 0; i < len(body); {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without =")
		}
		key := strings.TrimSpace(body[i : i+eq])
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		j := i + 1
		for j < len(body) {
			if body[j] == '\\' {
				j += 2
				continue
			}
			if body[j] == '"' {
				break
			}
			j++
		}
		if j >= len(body) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		val, err := strconv.Unquote(body[i : j+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value for %q: %w", key, err)
		}
		labels[key] = val
		i = j + 1
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return labels, nil
}

// matches reports whether the sample carries every label in sel.
func (s Sample) matches(sel map[string]string) bool {
	for k, v := range sel {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Value returns the first sample of name matching sel (nil sel matches any
// label set). ok is false when no sample matches.
func (m *Metrics) Value(name string, sel map[string]string) (float64, bool) {
	for _, s := range m.Samples {
		if s.Name == name && s.matches(sel) {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample of name matching sel — the scrape-side analogue of
// sum() over a label dimension.
func (m *Metrics) Sum(name string, sel map[string]string) float64 {
	var total float64
	for _, s := range m.Samples {
		if s.Name == name && s.matches(sel) {
			total += s.Value
		}
	}
	return total
}

// Histogram reassembles name's _bucket/_sum/_count series into a
// stats.HistSnapshot, summing across every label set matching sel (so
// quantiles can be taken over all routes, or one). ok is false when the
// exposition carries no buckets for name.
func (m *Metrics) Histogram(name string, sel map[string]string) (stats.HistSnapshot, bool) {
	byLE := map[float64]float64{}
	var sum, count float64
	found := false
	for _, s := range m.Samples {
		if !s.matches(sel) {
			continue
		}
		switch s.Name {
		case name + "_bucket":
			le := s.Label("le")
			if le == "+Inf" {
				continue // implicit: equals _count
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			byLE[b] += s.Value
			found = true
		case name + "_sum":
			sum += s.Value
		case name + "_count":
			count += s.Value
		}
	}
	if !found {
		return stats.HistSnapshot{}, false
	}
	bounds := make([]float64, 0, len(byLE))
	for b := range byLE {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	snap := stats.HistSnapshot{
		Bounds: bounds,
		Counts: make([]uint64, len(bounds)),
		Sum:    sum,
		Count:  uint64(count),
	}
	for i, b := range bounds {
		snap.Counts[i] = uint64(byLE[b])
	}
	return snap, true
}
