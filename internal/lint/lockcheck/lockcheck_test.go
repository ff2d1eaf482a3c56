package lockcheck_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/lockcheck"
)

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "l"), lockcheck.Analyzer)
}
