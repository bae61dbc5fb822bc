package experiments

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/aggtree"
	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/metadata"
	"repro/internal/pastry"
	"repro/internal/qserve"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// The configuration surface may only shrink without an edit here: each
// ceiling is the count at the time it was last lowered.
const (
	maxConfigFields   = 111
	maxTestOnlyFields = 23 // rows whose only setter is a test
	maxUnsetFields    = 0  // rows nothing sets at all
)

// configStructs are the structs DESIGN.md's "Configuration surface" table
// covers, under the names its rows use.
var configStructs = map[string]any{
	"aggtree.Config":               aggtree.Config{},
	"anemone.Config":               anemone.Config{},
	"avail.FarsiteConfig":          avail.FarsiteConfig{},
	"avail.GnutellaConfig":         avail.GnutellaConfig{},
	"coords.Config":                coords.Config{},
	"core.ChaosConfig":             core.ChaosConfig{},
	"core.ClusterConfig":           core.ClusterConfig{},
	"core.FeedConfig":              core.FeedConfig{},
	"core.CompletenessStudyConfig": core.CompletenessStudyConfig{},
	"core.NodeConfig":              core.NodeConfig{},
	"dissem.Config":                dissem.Config{},
	"experiments.Scale":            Scale{},
	"metadata.Config":              metadata.Config{},
	"pastry.Config":                pastry.Config{},
	"qserve.Config":                qserve.Config{},
	"runner.Config":                runner.Config{},
	"simnet.NetworkConfig":         simnet.NetworkConfig{},
	"simnet.TopologyConfig":        simnet.TopologyConfig{},
}

// censusRow matches one table row: | `pkg.Struct` | `Field` | default | set by |
var censusRow = regexp.MustCompile("^\\| `([a-z]+\\.[A-Za-z]+)` \\| `([A-Za-z]+)` \\|[^|]*\\| (.*) \\|$")

// TestConfigCensus holds DESIGN.md's "Configuration surface" table and the
// structs to each other: every exported field has exactly one row, every
// row names a field that exists, and the three counts stay at or under
// their ceilings — so a new knob has to name the caller that sets it.
func TestConfigCensus(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(design), "\n## Configuration surface\n")
	if !found {
		t.Fatal(`DESIGN.md has no "## Configuration surface" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	rows := map[string]string{} // "pkg.Struct.Field" -> the row's "set by" cell
	for _, line := range strings.Split(section, "\n") {
		m := censusRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key := m[1] + "." + m[2]
		if _, dup := rows[key]; dup {
			t.Errorf("%s has two rows", key)
		}
		rows[key] = m[3]
	}

	fields := 0
	for name, v := range configStructs {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			fields++
			key := name + "." + f.Name
			if _, ok := rows[key]; !ok {
				t.Errorf("%s has no row in DESIGN.md's Configuration surface table: name the non-test caller that sets it, or make it a constant", key)
			}
			delete(rows, key)
		}
	}
	for key := range rows {
		t.Errorf("DESIGN.md's Configuration surface table has a row for %s, which does not exist", key)
	}
	if fields > maxConfigFields {
		t.Errorf("%d exported configuration fields, ceiling is %d", fields, maxConfigFields)
	}

	testOnly := strings.Count(section, "| test only: ")
	unset := strings.Count(section, "| nothing: ")
	if testOnly > maxTestOnlyFields {
		t.Errorf("%d fields only a test sets, ceiling is %d", testOnly, maxTestOnlyFields)
	}
	if unset > maxUnsetFields {
		t.Errorf("%d fields nothing sets, ceiling is %d", unset, maxUnsetFields)
	}
	t.Logf("%d fields in %d structs, %d test only, %d unset", fields, len(configStructs), testOnly, unset)
}
