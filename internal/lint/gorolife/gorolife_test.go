package gorolife_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/gorolife"
)

func TestGorolife(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "g"), gorolife.Analyzer)
}
