package experiments

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
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

// The configuration surface and DESIGN.md may only shrink without an
// edit here: each ceiling is the count at the time it was last lowered.
const (
	maxConfigFields   = 68
	maxTestOnlyFields = 0 // rows whose only setter is a test
	maxUnsetFields    = 0 // rows nothing sets at all
	maxDesignLines    = 2537
	// maxOracleReads ceils the ground-truth reads of the simulator's own
	// code (see oracleReads): each is a place the protocol learns what it
	// could not know, so the count may only fall.
	maxOracleReads = 57
	// maxTestOnlyExports ceils the exported functions and methods of
	// non-test code that no other non-test file names (TestExportCensus):
	// code only its own tests call is deleted, so the count may only fall.
	maxTestOnlyExports = 50
)

// maxPackageLines are the per-package ceilings on non-test lines (the
// Package census table holds the exact counts). A package may shrink under
// its ceiling, and the change that shrinks it lowers the ceiling; raising
// one takes an edit here and a CHANGES.md line saying why.
var maxPackageLines = map[string]int{
	"internal/agg":         182,
	"internal/aggtree":     1488,
	"internal/anemone":     332,
	"internal/avail":       783,
	"internal/coords":      473,
	"internal/core":        1574,
	"internal/dissem":      1129,
	"internal/experiments": 1818,
	"internal/fault":       981,
	"internal/histogram":   672,
	"internal/ids":         499,
	"internal/metadata":    459,
	"internal/model":       209,
	"internal/obs":         1135,
	"internal/obs/causal":  352,
	"internal/pastry":      1353,
	"internal/predictor":   419,
	"internal/qserve":      811,
	"internal/relq":        2159,
	"internal/runner":      165,
	"internal/simnet":      1483,
	"seaweed":              203,
}

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

// The table's two row shapes: a struct field (| `pkg.Struct` | `Field` |
// default | set by |) and a seaweed-sim flag (| `-name` | sets | set by |).
var (
	censusRow = regexp.MustCompile("^\\| `([a-z]+\\.[A-Za-z]+)` \\| `([A-Za-z]+)` \\|[^|]*\\| (.*) \\|$")
	flagRow   = regexp.MustCompile("^\\| `(-[a-z-]+)` \\|[^|]*\\| (.*) \\|$")
)

// TestConfigCensus holds DESIGN.md's "Configuration surface" and "Package
// census" tables and the code to each other. Every exported field of the
// config structs and every seaweed-sim flag has exactly one row, every row
// names something that exists, and the counts stay at or under their
// ceilings — so a new knob has to name the caller that sets it. The facade
// declares no With* options: a deployment is a ClusterConfig. Every
// package has exactly one row with its non-test line count and a tier-1
// test that exists, stays at or under its maxPackageLines ceiling, and,
// unless it is the facade, is imported by non-test code outside it — so a
// package has to name what needs it. DESIGN.md stays at or under
// maxDesignLines. Non-test code under internal/ seeds its random streams
// with ids.NewSource: only internal/ids calls math/rand's NewSource.
func TestConfigCensus(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(design, []byte("\n")); n > maxDesignLines {
		t.Errorf("DESIGN.md has %d lines, ceiling %d: shrink it, or raise the ceiling and say why in CHANGES.md", n, maxDesignLines)
	}
	m := scanModule(t)
	checkPackages(t, designSection(t, design, "Package census"), m)
	for _, at := range m.slowSeeds {
		t.Errorf("%s calls math/rand's NewSource: seed with ids.NewSource, the same stream without the serial seeding", at)
	}
	section := designSection(t, design, "Configuration surface")

	rows := map[string]string{} // "pkg.Struct.Field" -> the row's "set by" cell
	flags := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		key, setBy, table := "", "", rows
		if m := censusRow.FindStringSubmatch(line); m != nil {
			key, setBy = m[1]+"."+m[2], m[3]
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
	for _, name := range facadeOptions(t) {
		t.Errorf("seaweed.go declares the option %s: set the ClusterConfig field instead", name)
	}
	flagNames := simFlags(t)
	for _, name := range flagNames {
		checkRow(t, flags, name)
	}
	for _, left := range []map[string]string{rows, flags} {
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
	t.Logf("%d fields in %d structs, %d flags; %d test only, %d unset",
		fields, len(configStructs), len(flagNames), testOnly, unset)
}

// designSection returns the body of DESIGN.md's "## name" section.
func designSection(t *testing.T, design []byte, name string) string {
	t.Helper()
	_, section, found := strings.Cut(string(design), "\n## "+name+"\n")
	if !found {
		t.Fatalf(`DESIGN.md has no "## %s" section`, name)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	return section
}

// A "Package census" row: | `internal/x` or `seaweed` | non-test lines |
// what needs it | `TestX` |.
var packageRow = regexp.MustCompile("^\\| `(internal/[a-z/]+|seaweed)` \\| ([0-9,]+) \\|[^|]+\\| `(Test\\w+)` \\|$")

// checkPackages holds the package table to the tree: one row per package
// under internal/ plus the root facade (`seaweed`), each with the
// package's non-test line count and a test function that exists; no row
// for a package that does not; and no internal package that only tests,
// or nothing, import.
func checkPackages(t *testing.T, section string, m module) {
	t.Helper()
	type row struct {
		lines string
		test  string
	}
	rows := map[string]row{}
	for _, line := range strings.Split(section, "\n") {
		r := packageRow.FindStringSubmatch(line)
		if r == nil {
			continue
		}
		if _, dup := rows[r[1]]; dup {
			t.Errorf("package %s has two rows", r[1])
		}
		rows[r[1]] = row{strings.ReplaceAll(r[2], ",", ""), r[3]}
	}

	var pkgs []string
	for dir := range m.lines {
		if strings.HasPrefix(dir, "internal/") {
			pkgs = append(pkgs, dir)
		}
	}
	sort.Strings(pkgs)
	pkgs = append(pkgs, "seaweed")
	for _, pkg := range pkgs {
		dir := pkg
		if pkg == "seaweed" {
			dir = "."
		}
		r, ok := rows[pkg]
		delete(rows, pkg)
		switch {
		case !ok:
			t.Errorf("package %s has no row in DESIGN.md's Package census table: name what needs it and the tier-1 test that fails without it, or delete it", pkg)
		case r.lines != strconv.Itoa(m.lines[dir]):
			t.Errorf("package %s: the Package census row says %s non-test lines, the tree has %d", pkg, r.lines, m.lines[dir])
		case !m.tests[r.test]:
			t.Errorf("package %s: the Package census row names %s, which is not a test function", pkg, r.test)
		}
		if ceiling, ok := maxPackageLines[pkg]; !ok {
			t.Errorf("package %s has no line ceiling in maxPackageLines", pkg)
		} else if m.lines[dir] > ceiling {
			t.Errorf("package %s has %d non-test lines, ceiling %d: shrink it, or raise the ceiling and say why in CHANGES.md", pkg, m.lines[dir], ceiling)
		}
		if pkg != "seaweed" && !m.imported[pkg] {
			t.Errorf("package %s: no non-test code outside it imports it", pkg)
		}
	}
	for pkg := range rows {
		t.Errorf("DESIGN.md's Package census table has a row for %s, which is not a package", pkg)
	}
	for pkg := range maxPackageLines {
		if !slices.Contains(pkgs, pkg) {
			t.Errorf("maxPackageLines has a ceiling for %s, which is not a package", pkg)
		}
	}
	t.Logf("%d packages in the census", len(pkgs))
}

// module is what scanModule learns from one walk of the source tree.
type module struct {
	lines    map[string]int  // package dir, relative to the root -> non-test lines
	imported map[string]bool // "internal/x" -> non-test code outside it imports it
	tests    map[string]bool // every Test function of every _test.go file
	// slowSeeds are the math/rand NewSource calls of non-test code under
	// internal/ outside internal/ids, as file:line.
	slowSeeds []string
	// discards are the `_ = local` statements of Test functions, as
	// file:line.
	discards []string
	// citations maps each section non-test code cites as DESIGN.md, "X"
	// to where, as file:line.
	citations map[string][]string
	// oracleReads are the ground-truth reads of non-test code outside
	// internal/fault, internal/experiments and bench, as file:line.
	oracleReads []string
	// exports are the exported functions and methods of non-test code,
	// and mentions maps every identifier to the non-test files naming it.
	exports  []exportDecl
	mentions map[string][]string
}

// exportDecl is one exported function or method: its name, its file and
// where it is declared, as file:line.
type exportDecl struct{ name, file, at string }

// testFunc matches a test function declaration.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

// scanModule walks the module's Go files, skipping testdata and hidden
// directories.
func scanModule(t *testing.T) module {
	t.Helper()
	m := module{lines: map[string]int{}, imported: map[string]bool{}, tests: map[string]bool{},
		citations: map[string][]string{}, mentions: map[string][]string{}}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, f := range testFunc.FindAllSubmatch(src, -1) {
				m.tests[string(f[1])] = true
			}
			for _, pos := range discardedLocals(f) {
				m.discards = append(m.discards, fset.Position(pos).String())
			}
			return nil
		}
		dir, _ := filepath.Rel("../..", filepath.Dir(path))
		dir = filepath.ToSlash(dir)
		m.lines[dir] += bytes.Count(src, []byte("\n"))
		for _, c := range f.Comments {
			text := strings.Join(strings.Fields(c.Text()), " ")
			for _, cited := range designCitation.FindAllStringSubmatch(text, -1) {
				m.citations[cited[1]] = append(m.citations[cited[1]], fset.Position(c.Pos()).String())
			}
		}
		if strings.HasPrefix(dir, "internal/") && dir != "internal/ids" {
			for _, pos := range newSourceCalls(f) {
				m.slowSeeds = append(m.slowSeeds, fset.Position(pos).String())
			}
		}
		if dir != "internal/fault" && dir != "internal/experiments" && dir != "bench" {
			for _, pos := range oracleReads(f) {
				m.oracleReads = append(m.oracleReads, fset.Position(pos).String())
			}
		}
		for _, imp := range f.Imports {
			if p, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "repro/"); ok && p != dir {
				m.imported[p] = true
			}
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				m.exports = append(m.exports, exportDecl{fn.Name.Name, path, fset.Position(fn.Pos()).String()})
			}
		}
		named := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !named[id.Name] {
				named[id.Name] = true
				m.mentions[id.Name] = append(m.mentions[id.Name], path)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// discardedLocals returns where f's Test functions assign one of their
// own locals to the blank identifier: a measurement computed and thrown
// away checks nothing. Locals named sink are exempt; they keep a result
// alive on purpose.
func discardedLocals(f *ast.File) []token.Pos {
	var out []token.Pos
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !strings.HasPrefix(fn.Name.Name, "Test") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
				return true
			}
			blank, _ := a.Lhs[0].(*ast.Ident)
			x, _ := a.Rhs[0].(*ast.Ident)
			if blank != nil && blank.Name == "_" && x != nil && x.Name != "sink" && x.Obj != nil &&
				x.Obj.Kind == ast.Var && x.Obj.Pos() > fn.Body.Pos() && x.Obj.Pos() < fn.Body.End() {
				out = append(out, a.Pos())
			}
			return true
		})
	}
	return out
}

// designCitation matches a citation of a DESIGN.md section in a comment.
var designCitation = regexp.MustCompile(`DESIGN\.md, "([^"]+)"`)

// TestTestsKeepTheirMeasurements: no Test function discards a local it
// computed with `_ = x`; it checks what it measured, or does not measure
// it.
func TestTestsKeepTheirMeasurements(t *testing.T) {
	for _, at := range scanModule(t).discards {
		t.Errorf("%s: a test discards a local it computed; check it or delete it", at)
	}
}

// TestDesignCitations: every section a non-test comment cites as
// DESIGN.md, "X" is a heading or a bold lead of DESIGN.md, so a comment
// cannot keep pointing at a section that was renamed or folded away.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := scanModule(t)
	if len(m.citations) == 0 {
		t.Fatal("no citation of DESIGN.md found: the scan is broken")
	}
	for name, at := range m.citations {
		heading := regexp.MustCompile(`(?m)^#+ ` + regexp.QuoteMeta(name) + `$`)
		if !heading.Match(design) && !bytes.Contains(design, []byte("**"+name+"**")) {
			t.Errorf("%v cite DESIGN.md, %q, which is no heading or bold lead there", at, name)
		}
	}
}

// oracleMethods are the pastry.Ring methods that answer from the ground
// truth: who is live, who can reach whom, and the leafsets, roots and
// routing tables that follow from them.
var oracleMethods = []string{"isLive", "reachable", "LiveClosest", "Root", "liveLeafNeighbors", "buildRoutingTable"}

// oracleReads returns where f reads the ground truth: a call of one of
// oracleMethods, or a use of the ring's live index (a selector named
// live that is not called; simnet's Retry has a live method). Names are
// matched without types, so another type's Root counts too.
func oracleReads(f *ast.File) []token.Pos {
	called := map[*ast.SelectorExpr]bool{}
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				called[sel] = true
				if slices.Contains(oracleMethods, sel.Sel.Name) {
					out = append(out, sel.Sel.Pos())
				}
			}
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "live" && !called[sel] {
			out = append(out, sel.Sel.Pos())
		}
		return true
	})
	return out
}

// TestOracleCensus holds the simulator's ground-truth reads to
// maxOracleReads: a change may remove reads, and lowers the ceiling when
// it does, but adds none without raising it and saying why in CHANGES.md.
func TestOracleCensus(t *testing.T) {
	reads := scanModule(t).oracleReads
	if len(reads) == 0 {
		t.Fatal("no ground-truth read found: the scan is broken")
	}
	if len(reads) > maxOracleReads {
		t.Errorf("%d ground-truth reads, ceiling %d:\n%s", len(reads), maxOracleReads, strings.Join(reads, "\n"))
	}
	t.Logf("%d ground-truth reads (ceiling %d)", len(reads), maxOracleReads)
}

// TestExportCensus holds the exported functions and methods of non-test
// code that no other non-test file names to maxTestOnlyExports. Names are
// matched without types, as the oracle census matches them: a method
// another type's call of the same name mentions counts as used, and one
// reached only through fmt or an interface of another module (String,
// Error) counts as unused. A change may delete such code, and lowers the
// ceiling when it does, but adds none without raising it and saying why in
// CHANGES.md.
func TestExportCensus(t *testing.T) {
	m := scanModule(t)
	if len(m.exports) == 0 {
		t.Fatal("no exported function found: the scan is broken")
	}
	var unused []string
	for _, x := range m.exports {
		if !slices.ContainsFunc(m.mentions[x.name], func(file string) bool { return file != x.file }) {
			unused = append(unused, strings.TrimPrefix(x.at, "../../")+": "+x.name)
		}
	}
	sort.Strings(unused)
	if len(unused) > maxTestOnlyExports {
		t.Errorf("%d exported functions no other non-test file names, ceiling %d: unexport or delete them:\n%s",
			len(unused), maxTestOnlyExports, strings.Join(unused, "\n"))
	}
	t.Logf("%d of %d exported functions named by no other non-test file (ceiling %d)",
		len(unused), len(m.exports), maxTestOnlyExports)
}

// newSourceCalls returns where f calls math/rand's NewSource, under
// whatever name f imports the package.
func newSourceCalls(f *ast.File) []token.Pos {
	name := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"math/rand"` {
			name = "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == name {
				out = append(out, sel.Pos())
			}
		}
		return true
	})
	return out
}

// docTestName matches a test name a document cites.
var docTestName = regexp.MustCompile(`\bTest[A-Z]\w*`)

// TestDocTestReferences: every Test name DESIGN.md, EXPERIMENTS.md,
// README.md and the verify skill cite is a test function in the tree, or
// the prefix of one (the documents cite -run prefixes such as
// TestChaosMixed50), so a document cannot keep pointing at a test that was
// renamed or deleted.
func TestDocTestReferences(t *testing.T) {
	var names []string
	for name := range scanModule(t).tests {
		names = append(names, name)
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cited := range docTestName.FindAllString(string(src), -1) {
			if !slices.ContainsFunc(names, func(name string) bool { return strings.HasPrefix(name, cited) }) {
				t.Errorf("%s cites %s, which is neither a test function nor the prefix of one", doc, cited)
			}
		}
	}
}

// checkRow reports a knob without a row, and consumes the row.
func checkRow(t *testing.T, table map[string]string, key string) {
	t.Helper()
	if _, ok := table[key]; !ok {
		t.Errorf("%s has no row in DESIGN.md's Configuration surface table: name the non-test caller that sets it, or make it a constant", key)
	}
	delete(table, key)
}

// facadeOptions returns the exported With* functions seaweed.go declares.
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
