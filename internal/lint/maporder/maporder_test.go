package maporder_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/maporder"
)

func TestMapOrder(t *testing.T) {
	maporder.Packages["m"] = true
	defer delete(maporder.Packages, "m")
	analysistest.Run(t, filepath.Join("testdata", "src", "m"), maporder.Analyzer)
}

func TestOutOfScopePackageIgnored(t *testing.T) {
	// Registration in TestMapOrder must not outlive that test: the
	// scope map is the rule's only gate.
	if maporder.Packages["m"] {
		t.Fatal("fixture path leaked into maporder.Packages")
	}
}
