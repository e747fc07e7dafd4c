package tinyevm_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
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
		"tinyevm/internal/contracts", "tinyevm/internal/core",
		"tinyevm/internal/device", "tinyevm/internal/evm", "tinyevm/internal/p2p",
		"tinyevm/internal/protocol", "tinyevm/internal/secp256k1",
		"tinyevm/internal/store", "tinyevm/internal/store/disk",
		"tinyevm/internal/types",
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
		"tinyevm/internal/asm", "tinyevm/internal/keccak",
		"tinyevm/internal/secp256k1", "tinyevm/internal/types",
		"tinyevm/internal/uint256",
	},
	"tinyevm/internal/core": {
		"tinyevm/internal/chain", "tinyevm/internal/contracts",
		"tinyevm/internal/device", "tinyevm/internal/protocol",
		"tinyevm/internal/radio", "tinyevm/internal/types",
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
		"tinyevm/internal/device", "tinyevm/internal/engine", "tinyevm/internal/evm",
		"tinyevm/internal/keccak", "tinyevm/internal/protocol",
		"tinyevm/internal/radio", "tinyevm/internal/secp256k1",
		"tinyevm/internal/stats", "tinyevm/internal/types",
		"tinyevm/internal/uint256",
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

// TestImportGraphPinned walks the module's non-test files and compares
// the import edges they declare with importGraph, printing every edge
// added or removed.
func TestImportGraphPinned(t *testing.T) {
	got := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "bench" || p == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		from := path.Join("tinyevm", filepath.ToSlash(filepath.Dir(p)))
		for _, imp := range f.Imports {
			to, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if to == "tinyevm" || strings.HasPrefix(to, "tinyevm/") {
				got[from+" -> "+to] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
