package eval

import (
	"context"
	"testing"

	"tinyevm/internal/chain"
)

// TestSelectorMatchesEthereum pins our keccak-derived ABI selectors to
// the well-known Ethereum constants.
func TestSelectorMatchesEthereum(t *testing.T) {
	if got := Selector("transfer(address,uint256)"); got != [4]byte{0xa9, 0x05, 0x9c, 0xbb} {
		t.Fatalf("transfer selector = %x", got)
	}
	if got := Selector("balanceOf(address)"); got != [4]byte{0x70, 0xa0, 0x82, 0x31} {
		t.Fatalf("balanceOf selector = %x", got)
	}
}

// TestContractWorkloadsSerial runs every registered scenario serially
// and checks its invariants end to end. The load-smoke input is CI's
// contract leg: 256 transactions from 32 accounts in blocks of 128.
func TestContractWorkloadsSerial(t *testing.T) {
	inputs := []struct {
		prefix string
		p      WorkloadParams
		blocks int
	}{
		{"", WorkloadParams{Accounts: 8, Txs: 64, BlockSize: 16}, 4},
		{"load-smoke/", WorkloadParams{Accounts: 32, Txs: 256, BlockSize: 128}, 2},
	}
	for _, in := range inputs {
		for _, spec := range ContractWorkloads() {
			t.Run(in.prefix+spec.Name, func(t *testing.T) {
				res, err := RunContractWorkload(context.Background(), spec, in.p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Txs != in.p.Txs || res.Blocks != in.blocks || res.Failed != 0 {
					t.Fatalf("unexpected result: %+v", res)
				}
			})
		}
	}
}

// TestContractWorkloadsEngine runs the suite through the parallel
// engine and re-checks invariants — the sharded scenario must behave
// identically whether mined serially or speculatively.
func TestContractWorkloadsEngine(t *testing.T) {
	p := WorkloadParams{Accounts: 8, Txs: 64, BlockSize: 32, Workers: 4}
	for _, spec := range ContractWorkloads() {
		t.Run(spec.Name, func(t *testing.T) {
			if _, err := RunContractWorkload(context.Background(), spec, p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestERC20InsufficientReverts checks the token's guard path: an
// account with no balance cannot transfer.
func TestERC20InsufficientReverts(t *testing.T) {
	spec, ok := WorkloadSpecByName("erc20-hot")
	if !ok {
		t.Fatal("erc20-hot not registered")
	}
	built, err := spec.Build(WorkloadParams{Accounts: 4, Txs: 4, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mine the legitimate batch first.
	for _, tx := range built.Batch {
		if err := built.Chain.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	built.Chain.MineBlock()
	if err := built.Verify(); err != nil {
		t.Fatal(err)
	}

	// A fresh pauper account transfers more than its zero balance.
	pauper := workloadAccounts("workload-pauper", 1)[0]
	built.Chain.Fund(pauper.PublicKey.Address(), 1<<30)
	rich := workloadAccounts("workload-erc20", 1)[0]
	token := built.Batch[0].To
	data := CallData(Selector("transfer(address,uint256)"),
		addrWord(rich.PublicKey.Address()), uintWord(999))
	tx := chain.NewTx(0, token, 0, data)
	if err := tx.Sign(pauper); err != nil {
		t.Fatal(err)
	}
	r, err := built.Chain.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status {
		t.Fatal("transfer from empty balance did not revert")
	}
}
