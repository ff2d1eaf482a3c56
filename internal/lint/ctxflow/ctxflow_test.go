package ctxflow_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/ctxflow"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "c"), ctxflow.Analyzer)
}
