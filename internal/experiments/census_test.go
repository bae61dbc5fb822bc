package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strconv"
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
	maxConfigFields   = 82
	maxTestOnlyFields = 0 // rows whose only setter is a test
	maxUnsetFields    = 0 // rows nothing sets at all
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
}

// The table's three row shapes: a struct field (| `pkg.Struct` | `Field` |
// default | set by |), a facade option (| `seaweed.WithX` | sets | set by
// |) and a seaweed-sim flag (| `-name` | sets | set by |).
var (
	censusRow = regexp.MustCompile("^\\| `([a-z]+\\.[A-Za-z]+)` \\| `([A-Za-z]+)` \\|[^|]*\\| (.*) \\|$")
	optionRow = regexp.MustCompile("^\\| `seaweed\\.(With[A-Za-z]+)` \\|[^|]*\\| (.*) \\|$")
	flagRow   = regexp.MustCompile("^\\| `(-[a-z-]+)` \\|[^|]*\\| (.*) \\|$")
)

// TestConfigCensus holds DESIGN.md's "Configuration surface" table and the
// code to each other: every exported field of the config structs, every
// With* option of seaweed.go and every seaweed-sim flag has exactly one
// row, every row names something that exists, and the three counts stay
// at or under their ceilings — so a new knob has to name the caller that
// sets it.
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
	options := map[string]string{}
	flags := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		key, setBy, table := "", "", rows
		if m := censusRow.FindStringSubmatch(line); m != nil {
			key, setBy = m[1]+"."+m[2], m[3]
		} else if m := optionRow.FindStringSubmatch(line); m != nil {
			key, setBy, table = m[1], m[2], options
		} else if m := flagRow.FindStringSubmatch(line); m != nil {
			key, setBy, table = m[1], m[2], flags
		} else {
			continue
		}
		if _, dup := table[key]; dup {
			t.Errorf("%s has two rows", key)
		}
		table[key] = setBy
	}

	fields := 0
	for name, v := range configStructs {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields++
				checkRow(t, rows, name+"."+f.Name)
			}
		}
	}
	opts := facadeOptions(t)
	for _, name := range opts {
		checkRow(t, options, name)
	}
	flagNames := simFlags(t)
	for _, name := range flagNames {
		checkRow(t, flags, name)
	}
	for _, left := range []map[string]string{rows, options, flags} {
		for key := range left {
			t.Errorf("DESIGN.md's Configuration surface table has a row for %s, which does not exist", key)
		}
	}
	if fields > maxConfigFields {
		t.Errorf("%d exported configuration fields, ceiling is %d", fields, maxConfigFields)
	}

	testOnly := strings.Count(section, "| test only: ")
	unset := strings.Count(section, "| nothing: ")
	if testOnly > maxTestOnlyFields {
		t.Errorf("%d rows only a test sets, ceiling is %d", testOnly, maxTestOnlyFields)
	}
	if unset > maxUnsetFields {
		t.Errorf("%d rows nothing sets, ceiling is %d", unset, maxUnsetFields)
	}
	t.Logf("%d fields in %d structs, %d options, %d flags; %d test only, %d unset",
		fields, len(configStructs), len(opts), len(flagNames), testOnly, unset)
}

// checkRow reports a knob without a row, and consumes the row.
func checkRow(t *testing.T, table map[string]string, key string) {
	t.Helper()
	if _, ok := table[key]; !ok {
		t.Errorf("%s has no row in DESIGN.md's Configuration surface table: name the non-test caller that sets it, or make it a constant", key)
	}
	delete(table, key)
}

// facadeOptions returns the With* options seaweed.go declares.
func facadeOptions(t *testing.T) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "../../seaweed.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			out = append(out, fn.Name.Name)
		}
	}
	return out
}

// simFlags returns the names of the flags seaweed-sim registers: the first
// string-literal argument of every flag.X call in its main.go.
func simFlags(t *testing.T) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "../../cmd/seaweed-sim/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, "-"+name)
				break
			}
		}
		return true
	})
	return out
}
