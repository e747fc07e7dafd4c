package protocol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// parseSentinels parses every non-test source file of the package and
// returns the names of all exported package-level Err* variables, and
// the sentinel identifier of each Sentinels row in order.
func parseSentinels(t *testing.T) (declared map[string]bool, rows []string) {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared = make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, ident := range vs.Names {
					if strings.HasPrefix(ident.Name, "Err") && ident.IsExported() {
						declared[ident.Name] = true
					}
					if ident.Name == "Sentinels" {
						rows = append(rows, tableRows(t, vs.Values[i])...)
					}
				}
			}
		}
	}
	return declared, rows
}

// tableRows returns the sentinel identifier of each row of the
// Sentinels composite literal.
func tableRows(t *testing.T, lit ast.Expr) []string {
	t.Helper()
	cl, ok := lit.(*ast.CompositeLit)
	if !ok {
		t.Fatalf("Sentinels is not a composite literal")
	}
	var rows []string
	for _, elt := range cl.Elts {
		row, ok := elt.(*ast.CompositeLit)
		if !ok || len(row.Elts) != 2 {
			t.Fatalf("Sentinels row %d is not a {sentinel, kind} pair", len(rows))
		}
		ident, ok := row.Elts[0].(*ast.Ident)
		if !ok {
			t.Fatalf("Sentinels row %d does not name a sentinel", len(rows))
		}
		rows = append(rows, ident.Name)
	}
	return rows
}

// TestSentinelRegistryComplete pins Sentinels to the source: every
// exported Err* declared in the package has exactly one row, every row
// names a declared sentinel, and no row's error or kind is empty or
// repeated. Adding a new error without a row fails here; the RPC
// layer's own exhaustiveness test walks the table, so its wire-kind
// round trip fails next if that breaks too.
func TestSentinelRegistryComplete(t *testing.T) {
	declared, rows := parseSentinels(t)
	if len(declared) == 0 {
		t.Fatal("no exported sentinels found in package source")
	}
	listed := make(map[string]bool)
	for _, name := range rows {
		if !declared[name] {
			t.Errorf("Sentinels lists %s, which is not declared in the package", name)
		}
		if listed[name] {
			t.Errorf("Sentinels lists %s twice", name)
		}
		listed[name] = true
	}
	for name := range declared {
		if !listed[name] {
			t.Errorf("exported sentinel %s has no Sentinels row", name)
		}
	}
	if len(Sentinels) != len(rows) {
		t.Fatalf("Sentinels has %d rows, its literal %d", len(Sentinels), len(rows))
	}
	kinds := make(map[string]bool)
	for i, ek := range Sentinels {
		if ek.Err == nil || ek.Kind == "" || kinds[ek.Kind] {
			t.Errorf("Sentinels row %d (%s): nil error, empty or repeated kind %q", i, rows[i], ek.Kind)
		}
		kinds[ek.Kind] = true
	}
}
