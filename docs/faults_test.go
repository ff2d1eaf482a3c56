package docs

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// siteRow is a row of FAULTS.md's Sites table.
var siteRow = regexp.MustCompile("^  \\| `([a-z]+\\.[a-z]+)` \\|")

// TestFaultsSiteTableMatchesSites: FAULTS.md's Sites table names
// exactly faultinject.Sites().
func TestFaultsSiteTableMatchesSites(t *testing.T) {
	text, err := os.ReadFile("FAULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(text), "\n- **Sites**")
	if !ok {
		t.Fatal("FAULTS.md has no Sites table")
	}
	table, _, _ = strings.Cut(table, "\n- **")
	var documented []string
	for _, line := range strings.Split(table, "\n") {
		if m := siteRow.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(documented)
	if sites := faultinject.Sites(); !slices.Equal(documented, sites) {
		t.Errorf("FAULTS.md's Sites table names %v; faultinject.Sites() is %v", documented, sites)
	}
}
