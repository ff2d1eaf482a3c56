package senterr_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/senterr"
)

func TestSentErr(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "s"), senterr.Analyzer)
}
