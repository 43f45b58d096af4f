package metricconv_test

import (
	"testing"

	"rendelim/internal/analysis/analysistest"
	"rendelim/internal/analysis/metricconv"
)

// TestConventions covers every promtext.Writer method: the charset,
// suffix and constant-name rules, the label vocabulary and literal keys,
// the family types, directive suppression, and resvc_* expvars.
func TestConventions(t *testing.T) {
	analysistest.Run(t, metricconv.Analyzer, analysistest.Dir("metrics"))
}
