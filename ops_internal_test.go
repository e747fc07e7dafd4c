package tinyevm

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestOpTable holds the operation table to what the six-place
// definition it replaced said: every kind defined once under its
// journal name, run by exactly one public wrapper, journaled in a form
// that survives a decode/encode round trip byte-for-byte, and locked
// the way the pre-table classification (copied below as the oracle)
// locked it.
func TestOpTable(t *testing.T) {
	defs := map[string]*opDef{
		"opAddNode": opAddNode, "opRegisterSensor": opRegisterSensor,
		"opOpenChannel": opOpenChannel, "opPay": opPay, "opPayConditional": opPayConditional,
		"opClaim": opClaim, "opClose": opClose, "opReopen": opReopen,
		"opRoutePayment": opRoutePayment, "opSendSensorData": opSendSensorData,
		"opDeposit": opDeposit, "opCommit": opCommit, "opExit": opExit, "opSettle": opSettle,
		"opMineBlock": opMineBlock, "opRunChallenge": opRunChallenge,
		"opDeployContract": opDeployContract, "opCallContract": opCallContract,
	}
	if len(opByName) != len(defs) {
		t.Fatalf("table has %d ops, the test knows %d", len(opByName), len(defs))
	}
	for ident, def := range defs {
		if opByName[def.name] != def {
			t.Errorf("%s: not in the table under its own name %q", ident, def.name)
		}
	}

	// The pre-table classification: opIsSharded's list, and the two
	// pairwise cases of lockShardsFor/opScope; on-chain ops were the
	// callers of applyChainOp.
	sharded := "registerSensorValue openChannel pay payConditional claim close reopen sendSensorData deployContract callContract"
	pairByPeer := "openChannel sendSensorData"
	pairByChannel := "pay payConditional claim close reopen"
	onChain := "deposit commit exit settle"
	in := func(list, name string) bool { return slices.Contains(strings.Fields(list), name) }
	for name, def := range opByName {
		want := scopeService
		switch {
		case in(pairByPeer, name):
			want = scopePeerAddr
		case in(pairByChannel, name):
			want = scopePeerChannel
		case in(sharded, name):
			want = scopeNode
		case in(onChain, name):
			want = scopeChain
		}
		if def.scope != want {
			t.Errorf("%s: scope %d, the parent's classification says %d", name, def.scope, want)
		}
	}

	// Exactly one run(ctx, <def>, …) call per def in the non-test sources
	// and export_test.go. The latter holds MineBlock, the one wrapper
	// only tests call; replay still applies the mineBlock records that
	// stored journals hold.
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") || fi.Name() == "export_test.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	callers := make(map[string]int)
	ast.Inspect(pkgs["tinyevm"], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 4 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "run" {
			if id, ok := call.Args[1].(*ast.Ident); ok {
				callers[id.Name]++
			}
		}
		return true
	})
	for ident := range defs {
		if callers[ident] != 1 {
			t.Errorf("%s is run by %d public wrappers, want exactly 1", ident, callers[ident])
		}
		delete(callers, ident)
	}
	if len(callers) != 0 {
		t.Errorf("run called with defs the test does not know: %v", callers)
	}

	// Every kind's record, as the format pin journals it, decodes and
	// re-encodes to the same bytes.
	golden, err := os.Open("testdata/format/journal.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	seen := make(map[string]bool)
	for sc := bufio.NewScanner(golden); sc.Scan(); {
		_, text, _ := bytes.Cut(sc.Bytes(), []byte(" "))
		value, err := hex.DecodeString(string(text))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeOpRecord(value)
		if err != nil {
			t.Fatalf("%x: %v", value, err)
		}
		if again := rec.encode(nil); !bytes.Equal(again, value) {
			t.Errorf("record does not round-trip:\n got %x\nwant %x", again, value)
		}
		seen[rec.Op] = true
	}
	for name := range opByName {
		if !seen[name] {
			t.Errorf("%s: no record of this kind in the golden journal", name)
		}
	}
}
