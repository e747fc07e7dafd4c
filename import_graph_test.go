package tinyevm_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// importGraph is every import edge between packages of this module,
// taken from non-test files: importer → imported, both sorted. The
// benchmark module under bench/ is not part of it. This table, not a
// diagram, is the authority on which layer talks to which; an edge
// appears or disappears here in the same change that adds or removes
// the import.
var importGraph = map[string][]string{
	"tinyevm": {
		"tinyevm/internal/asm", "tinyevm/internal/chain", "tinyevm/internal/cluster",
		"tinyevm/internal/codec", "tinyevm/internal/consensus",
		"tinyevm/internal/contracts", "tinyevm/internal/device", "tinyevm/internal/evm",
		"tinyevm/internal/p2p", "tinyevm/internal/protocol", "tinyevm/internal/radio",
		"tinyevm/internal/secp256k1", "tinyevm/internal/store",
		"tinyevm/internal/store/disk", "tinyevm/internal/types",
	},
	"tinyevm/cmd/benchtables": {
		"tinyevm/internal/eval",
	},
	"tinyevm/cmd/corpusgen": {
		"tinyevm/internal/corpus",
	},
	"tinyevm/cmd/tinyevm-run": {
		"tinyevm/internal/asm", "tinyevm/internal/device", "tinyevm/internal/evm",
		"tinyevm/internal/types",
	},
	"tinyevm/cmd/tinyevm-serve": {
		"tinyevm", "tinyevm/internal/rpc", "tinyevm/internal/store",
	},
	"tinyevm/examples/fraud-dispute": {
		"tinyevm",
	},
	"tinyevm/examples/payment-routing": {
		"tinyevm",
	},
	"tinyevm/examples/quickstart": {
		"tinyevm",
	},
	"tinyevm/examples/sensor-oracle": {
		"tinyevm",
	},
	"tinyevm/examples/smart-parking": {
		"tinyevm",
	},
	"tinyevm/internal/asm": {
		"tinyevm/internal/evm",
	},
	"tinyevm/internal/chain": {
		"tinyevm/internal/codec", "tinyevm/internal/evm", "tinyevm/internal/keccak",
		"tinyevm/internal/mst", "tinyevm/internal/secp256k1",
		"tinyevm/internal/store", "tinyevm/internal/types",
		"tinyevm/internal/uint256",
	},
	"tinyevm/internal/cluster": {
		"tinyevm/internal/chain", "tinyevm/internal/consensus",
		"tinyevm/internal/p2p", "tinyevm/internal/secp256k1",
		"tinyevm/internal/store", "tinyevm/internal/txpool",
		"tinyevm/internal/types",
	},
	"tinyevm/internal/codec": {
		"tinyevm/internal/types",
	},
	"tinyevm/internal/consensus": {
		"tinyevm/internal/chain", "tinyevm/internal/types",
	},
	"tinyevm/internal/contracts": {
		"tinyevm/internal/asm", "tinyevm/internal/keccak", "tinyevm/internal/types",
		"tinyevm/internal/uint256",
	},
	"tinyevm/internal/corpus": {
		"tinyevm/internal/asm", "tinyevm/internal/device",
	},
	"tinyevm/internal/device": {
		"tinyevm/internal/evm", "tinyevm/internal/keccak",
		"tinyevm/internal/secp256k1", "tinyevm/internal/types",
		"tinyevm/internal/uint256",
	},
	"tinyevm/internal/engine": {
		"tinyevm/internal/chain", "tinyevm/internal/evm", "tinyevm/internal/types",
		"tinyevm/internal/uint256",
	},
	"tinyevm/internal/eval": {
		"tinyevm/internal/asm", "tinyevm/internal/chain", "tinyevm/internal/corpus",
		"tinyevm/internal/device", "tinyevm/internal/evm",
		"tinyevm/internal/keccak", "tinyevm/internal/protocol",
		"tinyevm/internal/radio", "tinyevm/internal/secp256k1",
		"tinyevm/internal/stats", "tinyevm/internal/types",
	},
	"tinyevm/internal/evm": {
		"tinyevm/internal/keccak", "tinyevm/internal/secp256k1",
		"tinyevm/internal/types", "tinyevm/internal/uint256",
	},
	"tinyevm/internal/load": {
		"tinyevm/internal/rpc",
	},
	"tinyevm/internal/mst": {
		"tinyevm/internal/types",
	},
	"tinyevm/internal/p2p": {
		"tinyevm/internal/chain", "tinyevm/internal/codec",
		"tinyevm/internal/secp256k1", "tinyevm/internal/types",
	},
	"tinyevm/internal/protocol": {
		"tinyevm/internal/chain", "tinyevm/internal/codec",
		"tinyevm/internal/contracts", "tinyevm/internal/device",
		"tinyevm/internal/keccak", "tinyevm/internal/mst", "tinyevm/internal/radio",
		"tinyevm/internal/secp256k1", "tinyevm/internal/types",
		"tinyevm/internal/uint256",
	},
	"tinyevm/internal/radio": {
		"tinyevm/internal/device", "tinyevm/internal/types",
	},
	"tinyevm/internal/rpc": {
		"tinyevm", "tinyevm/internal/chain", "tinyevm/internal/device",
		"tinyevm/internal/mst", "tinyevm/internal/protocol",
		"tinyevm/internal/radio", "tinyevm/internal/types",
	},
	"tinyevm/internal/secp256k1": {
		"tinyevm/internal/keccak", "tinyevm/internal/types",
	},
	"tinyevm/internal/store/disk": {
		"tinyevm/internal/store",
	},
	"tinyevm/internal/txpool": {
		"tinyevm/internal/chain", "tinyevm/internal/p2p", "tinyevm/internal/types",
	},
	"tinyevm/internal/types": {
		"tinyevm/internal/keccak",
	},
}

// moduleFiles parses every non-test Go file of the module and of the
// benchmark module under bench/, keyed by import path (the directory
// under "tinyevm"; bench/ is "tinyevm/bench").
func moduleFiles(t *testing.T, mode parser.Mode) (*token.FileSet, map[string][]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := make(map[string][]*ast.File)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "testdata" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		ip := path.Join("tinyevm", filepath.ToSlash(filepath.Dir(p)))
		pkgs[ip] = append(pkgs[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// TestImportGraphPinned compares the import edges the module's non-test
// files declare with importGraph, printing every edge added or removed.
func TestImportGraphPinned(t *testing.T) {
	_, pkgs := moduleFiles(t, parser.ImportsOnly)
	got := make(map[string]bool)
	for from, files := range pkgs {
		if from == "tinyevm/bench" || strings.HasPrefix(from, "tinyevm/bench/") {
			continue
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				to, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if to == "tinyevm" || strings.HasPrefix(to, "tinyevm/") {
					got[from+" -> "+to] = true
				}
			}
		}
	}
	want := make(map[string]bool)
	for from, tos := range importGraph {
		for _, to := range tos {
			want[from+" -> "+to] = true
		}
	}
	var added, removed []string
	for e := range got {
		if !want[e] {
			added = append(added, e)
		}
	}
	for e := range want {
		if !got[e] {
			removed = append(removed, e)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	if len(added)+len(removed) > 0 {
		t.Errorf("import graph drifted from importGraph\nadded:\n  %s\nremoved:\n  %s",
			strings.Join(added, "\n  "), strings.Join(removed, "\n  "))
	}
}

// surfaceAllowlist is every exported function, method, constant and
// package-level variable of the module, outside bench/, cmd/ and
// examples/, that no non-test file references — symbol → why it stays.
// A reason is one of: (a) the whole package goes under a named ROADMAP
// item (one entry per package, keyed by its import path); (b) it is the
// reference implementation a test holds a fast path to; (c) a named
// ROADMAP item is its next product caller; (d) it is a named value of
// an enum or on-device layout whose siblings are used. The list is
// edited by hand and only shrinks: a symbol that gains a caller or goes
// away must leave it in the same change.
var surfaceAllowlist = map[string]string{
	"tinyevm/internal/engine": "(a) ROADMAP 12 deletes the package; bench/ still measures it",
	"tinyevm/internal/load":   "(a) ROADMAP 10 replaces the harness with the whole-system simulation",

	"tinyevm/internal/uint256.Int.ToBig":      "(b) converts to the math/big oracle the arithmetic tests compare against",
	"tinyevm/internal/uint256.Int.SetFromBig": "(b) converts from the math/big oracle the arithmetic tests compare against",

	"tinyevm/internal/rpc.VerifyStateProof":              "(c) ROADMAP 21: the device-side light client verifies commits with it",
	"tinyevm/internal/protocol.Party.CancelConditional":  "(c) ROADMAP 22(b): a failed route unwinds its locks through it",
	"tinyevm/internal/protocol.Party.ReceiveConditional": "(c) ROADMAP 22(c) decides whether standalone hash-locked payments stay",
	"tinyevm.ServiceNode.PayConditional":                 "(c) ROADMAP 22(c) decides whether standalone hash-locked payments stay",
	"tinyevm.ServiceNode.Claim":                          "(c) ROADMAP 22(c) decides whether standalone hash-locked payments stay",

	"tinyevm.SensorTime":      "(d) sensor id of the IoT opcode; SensorTemperature and the others are used",
	"tinyevm.SensorBattery":   "(d) sensor id of the IoT opcode; SensorTemperature and the others are used",
	"tinyevm.ActuatorBarrier": "(d) actuator id of the IoT opcode; ActuatorLED and the sensors are used",

	"tinyevm/internal/contracts.ChannelSlotSender":       "(d) channel contract storage layout, read by the contract tests",
	"tinyevm/internal/contracts.ChannelSlotReceiver":     "(d) channel contract storage layout, read by the contract tests",
	"tinyevm/internal/contracts.ChannelSlotSensor":       "(d) channel contract storage layout, read by the contract tests",
	"tinyevm/internal/contracts.ChannelSlotSeq":          "(d) channel contract storage layout",
	"tinyevm/internal/contracts.ChannelSlotTotal":        "(d) channel contract storage layout",
	"tinyevm/internal/contracts.TemplateSlotReceiver":    "(d) template contract storage layout",
	"tinyevm/internal/contracts.TemplateSlotClock":       "(d) template contract storage layout",
	"tinyevm/internal/contracts.TemplateSlotChannelBase": "(d) template contract storage layout",
	"tinyevm/internal/contracts.TemplateChannelRing":     "(d) template contract storage layout",
}

// surfaceReason is the form of a surfaceAllowlist reason: its category,
// then why.
var surfaceReason = regexp.MustCompile(`^\([a-d]\) \S`)

// TestPublicSurfacePinned type-checks the module's non-test files, and
// bench/ as a caller, and lists every exported function, method,
// constant and package-level variable outside bench/, cmd/ and
// examples/ that no non-test file references. A method also counts as
// referenced when its receiver type (or a pointer to it) implements an
// interface that declares it and that non-test code names, or error or
// fmt.Stringer. Types and struct fields are out of scope: they are wire
// and JSON shapes. The list must equal surfaceAllowlist.
func TestPublicSurfacePinned(t *testing.T) {
	fset, files := moduleFiles(t, 0)
	info := &types.Info{
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	imp := &moduleImporter{fset: fset, files: files, info: info,
		pkgs: make(map[string]*types.Package), std: stdImporter(t, fset, files)}
	for ip := range files {
		if _, err := imp.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}

	used := make(map[types.Object]bool)
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, pkg := range imp.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if m, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, it.Method(i).Name()); m != nil {
						used[origin(m)] = true
					}
				}
			}
		}
	}

	unused := make(map[string]string) // symbol → its package
	for ip, pkg := range imp.pkgs {
		if ip == "tinyevm/bench" || strings.HasPrefix(ip, "tinyevm/cmd/") || strings.HasPrefix(ip, "tinyevm/examples/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func, *types.Const, *types.Var:
				if obj.Exported() && !used[obj] {
					unused[ip+"."+name] = ip
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !used[m] {
						unused[ip+"."+name+"."+m.Name()] = ip
					}
				}
			}
		}
	}
	var added, stale, unexplained []string
	listed := make(map[string]bool)
	for sym, pkg := range unused {
		if _, ok := surfaceAllowlist[sym]; ok {
			listed[sym] = true
		} else if _, ok := surfaceAllowlist[pkg]; ok {
			listed[pkg] = true
		} else {
			added = append(added, fmt.Sprintf("%q: \"(a|b|c|d) …\",", sym))
		}
	}
	for key, reason := range surfaceAllowlist {
		if !listed[key] {
			stale = append(stale, key)
		}
		if !surfaceReason.MatchString(reason) {
			unexplained = append(unexplained, key)
		}
	}
	sort.Strings(added)
	sort.Strings(stale)
	sort.Strings(unexplained)
	if len(added) > 0 {
		t.Errorf("exported with no non-test caller; delete it, move it into the package's export_test.go, "+
			"or add it to surfaceAllowlist with a reason from (a)-(d):\n\t%s", strings.Join(added, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("surfaceAllowlist entries that are gone or now have a caller; remove them:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
	if len(unexplained) > 0 {
		t.Errorf("surfaceAllowlist entries without a reason starting (a), (b), (c) or (d):\n\t%s",
			strings.Join(unexplained, "\n\t"))
	}
}

// moduleImporter type-checks the module's packages from the files
// moduleFiles parsed, and hands every other import to std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	pkgs  map[string]*types.Package
	std   types.Importer
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if pkg, ok := m.pkgs[ip]; ok {
		return pkg, nil
	}
	files, ok := m.files[ip]
	if !ok {
		return m.std.Import(ip)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(ip, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = pkg
	return pkg, nil
}

// stdImporter reads the export data of every standard-library package
// the parsed files import, located by one "go list -export" call rather
// than one per package.
func stdImporter(t *testing.T, fset *token.FileSet, files map[string][]*ast.File) types.Importer {
	t.Helper()
	seen := make(map[string]bool)
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for _, fs := range files {
		for _, f := range fs {
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if _, ok := files[ip]; !ok && !seen[ip] {
					seen[ip] = true
					args = append(args, ip)
				}
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if ip, file, ok := strings.Cut(line, " "); ok {
			export[ip] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := export[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", ip)
		}
		return os.Open(file)
	})
}

// origin maps a method or field of an instantiated generic type back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
