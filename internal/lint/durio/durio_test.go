package durio_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/durio"
)

func TestDurio(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "d"), durio.Analyzer)
}

func TestDurioJournalRules(t *testing.T) {
	durio.JournalPackages["dj"] = true
	defer delete(durio.JournalPackages, "dj")
	analysistest.Run(t, filepath.Join("testdata", "src", "dj"), durio.Analyzer)
}
