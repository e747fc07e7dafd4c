package chain

import (
	"errors"
	"testing"

	"tinyevm/internal/asm"
	"tinyevm/internal/evm"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

func fundedKey(c *Chain, seed string) *secp256k1.PrivateKey {
	key := secp256k1.DeterministicKey(seed)
	c.Fund(key.PublicKey.Address(), 1_000_000_000)
	return key
}

func TestGenesis(t *testing.T) {
	c := New()
	if c.Head().Number != 0 {
		t.Fatalf("head %d", c.Head().Number)
	}
	if c.Head().Hash.IsZero() {
		t.Fatal("genesis hash empty")
	}
}

func TestPlainTransfer(t *testing.T) {
	c := New()
	key := fundedKey(c, "alice")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000aa")

	tx := NewTx(0, &to, 12345, nil)
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	r, err := c.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Status {
		t.Fatalf("transfer failed: %v", r.Err)
	}
	if got := c.BalanceOf(to); got != 12345 {
		t.Fatalf("recipient balance %d", got)
	}
	if r.GasUsed != IntrinsicGas {
		t.Fatalf("gas used %d, want %d", r.GasUsed, IntrinsicGas)
	}
	// Sender paid value + gas.
	sender := key.PublicKey.Address()
	want := uint64(1_000_000_000) - 12345 - IntrinsicGas
	if got := c.BalanceOf(sender); got != want {
		t.Fatalf("sender balance %d, want %d", got, want)
	}
	// Coinbase earned the gas.
	if got := c.BalanceOf(c.Head().Coinbase); got != IntrinsicGas {
		t.Fatalf("coinbase got %d", got)
	}
}

func TestNonceEnforcement(t *testing.T) {
	c := New()
	key := fundedKey(c, "bob")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000bb")

	tx := NewTx(5, &to, 1, nil) // wrong nonce
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	r, err := c.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status || !errors.Is(r.Err, ErrBadNonce) {
		t.Fatalf("got %v, want ErrBadNonce", r.Err)
	}
}

func TestUnsignedRejected(t *testing.T) {
	c := New()
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000cc")
	tx := NewTx(0, &to, 1, nil)
	if err := c.Submit(tx); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("got %v, want ErrBadSignature", err)
	}
}

func TestTamperedSignature(t *testing.T) {
	c := New()
	key := fundedKey(c, "mallory-target")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000dd")
	tx := NewTx(0, &to, 100, nil)
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	// Tamper with the value after signing: sender recovery yields a
	// different (unfunded) address, so the tx cannot spend the victim's
	// funds.
	tx.Value = 999_999
	tx.from = nil // drop the cache so Sender re-recovers
	r, err := c.SendTransaction(tx)
	if err != nil {
		// Recovery itself may fail, which is also a pass.
		return
	}
	if r.Status && c.BalanceOf(to) == 999_999 {
		victim := key.PublicKey.Address()
		if c.BalanceOf(victim) < 1_000_000_000-IntrinsicGas-999_999 {
			t.Fatal("tampered transaction spent victim funds")
		}
	}
}

// counterInit deploys a contract whose runtime increments slot 0 on
// every call and returns the new value.
func counterInit(t *testing.T) []byte {
	t.Helper()
	runtime := asm.MustAssemble(`
		PUSH1 0x00
		SLOAD
		PUSH1 0x01
		ADD
		DUP1
		PUSH1 0x00
		SSTORE
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`)
	init := asm.MustAssemble(`
		PUSH1 ` + itoa(len(runtime)) + `
		PUSH :rt
		PUSH1 0x00
		CODECOPY
		PUSH1 ` + itoa(len(runtime)) + `
		PUSH1 0x00
		RETURN
		:rt JUMPDEST
	`)
	// Replace the trailing JUMPDEST marker with the runtime itself.
	return append(init[:len(init)-1], runtime...)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func TestDeployAndCallContract(t *testing.T) {
	c := New()
	key := fundedKey(c, "deployer")

	deploy := NewTx(0, nil, 0, counterInit(t))
	if err := deploy.Sign(key); err != nil {
		t.Fatal(err)
	}
	r, err := c.SendTransaction(deploy)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Status {
		t.Fatalf("deploy failed: %v", r.Err)
	}
	if r.ContractAddress.IsZero() {
		t.Fatal("no contract address")
	}
	if len(c.state.Code(r.ContractAddress)) == 0 {
		t.Fatal("no code installed")
	}
	if r.GasUsed <= IntrinsicGas {
		t.Fatal("deployment charged no execution gas")
	}

	// Two calls: counter goes 1, 2.
	for want := uint64(1); want <= 2; want++ {
		call := NewTx(want, &r.ContractAddress, 0, nil)
		if err := call.Sign(key); err != nil {
			t.Fatal(err)
		}
		cr, err := c.SendTransaction(call)
		if err != nil {
			t.Fatal(err)
		}
		if !cr.Status {
			t.Fatalf("call failed: %v", cr.Err)
		}
		if got := cr.ReturnData[31]; uint64(got) != want {
			t.Fatalf("counter = %d, want %d", got, want)
		}
	}
}

func TestCallReadOnlyDoesNotMutate(t *testing.T) {
	c := New()
	key := fundedKey(c, "viewer")
	deploy := NewTx(0, nil, 0, counterInit(t))
	if err := deploy.Sign(key); err != nil {
		t.Fatal(err)
	}
	r, _ := c.SendTransaction(deploy)

	// Read-only calls see the increment but do not persist it.
	out, err := c.CallReadOnly(key.PublicKey.Address(), r.ContractAddress, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[31] != 1 {
		t.Fatalf("read-only result %d", out[31])
	}
	out2, err := c.CallReadOnly(key.PublicKey.Address(), r.ContractAddress, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2[31] != 1 {
		t.Fatalf("read-only call mutated state: second call got %d", out2[31])
	}
}

func TestRevertedTxKeepsGas(t *testing.T) {
	c := New()
	key := fundedKey(c, "reverter")
	// Contract that always reverts.
	runtime := asm.MustAssemble("PUSH1 0x00\nPUSH1 0x00\nREVERT")
	init := asm.MustAssemble(`
		PUSH1 ` + itoa(len(runtime)) + `
		PUSH :rt
		PUSH1 0x00
		CODECOPY
		PUSH1 ` + itoa(len(runtime)) + `
		PUSH1 0x00
		RETURN
		:rt JUMPDEST
	`)
	init = append(init[:len(init)-1], runtime...)

	deploy := NewTx(0, nil, 0, init)
	deploy.Sign(key)
	r, _ := c.SendTransaction(deploy)
	if !r.Status {
		t.Fatalf("deploy failed: %v", r.Err)
	}

	call := NewTx(1, &r.ContractAddress, 0, nil)
	call.Sign(key)
	cr, _ := c.SendTransaction(call)
	if cr.Status {
		t.Fatal("reverting call reported success")
	}
	if !errors.Is(cr.Err, evm.ErrRevert) {
		t.Fatalf("got %v, want ErrRevert", cr.Err)
	}
	// The coinbase still earned the consumed gas.
	if c.BalanceOf(c.Head().Coinbase) == 0 {
		t.Fatal("no gas paid for reverted tx")
	}
}

func TestBlocksLinkAndTimestampAdvance(t *testing.T) {
	c := New()
	key := fundedKey(c, "miner-customer")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000ee")
	for i := uint64(0); i < 3; i++ {
		tx := NewTx(i, &to, 1, nil)
		tx.Sign(key)
		if _, err := c.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	if c.Head().Number != 3 {
		t.Fatalf("head %d, want 3", c.Head().Number)
	}
	for n := uint64(1); n <= 3; n++ {
		b, err := c.BlockByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		parent, _ := c.BlockByNumber(n - 1)
		if b.ParentHash != parent.Hash {
			t.Fatalf("block %d does not link to parent", n)
		}
		if b.Timestamp != parent.Timestamp+BlockInterval {
			t.Fatalf("block %d timestamp gap wrong", n)
		}
	}
	if _, err := c.BlockByNumber(99); !errors.Is(err, ErrUnknownBlock) {
		t.Fatal("unknown block accepted")
	}
}

func TestMempoolBatching(t *testing.T) {
	c := New()
	key := fundedKey(c, "batcher")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000ff")
	for i := uint64(0); i < 5; i++ {
		tx := NewTx(i, &to, 1, nil)
		tx.Sign(key)
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	receipts := c.MineBlock()
	if len(receipts) != 5 {
		t.Fatalf("%d receipts", len(receipts))
	}
	if c.Head().Number != 1 {
		t.Fatalf("one block expected, head=%d", c.Head().Number)
	}
	if len(c.Head().TxHashes) != 5 {
		t.Fatalf("%d txs in block", len(c.Head().TxHashes))
	}
	for _, r := range receipts {
		if !r.Status {
			t.Fatalf("tx failed: %v", r.Err)
		}
	}
}

func TestBlockchainOpcodesSeeChain(t *testing.T) {
	c := New()
	key := fundedKey(c, "block-reader")
	// Runtime returns NUMBER.
	runtime := asm.MustAssemble("NUMBER\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN")
	init := asm.MustAssemble(`
		PUSH1 ` + itoa(len(runtime)) + `
		PUSH :rt
		PUSH1 0x00
		CODECOPY
		PUSH1 ` + itoa(len(runtime)) + `
		PUSH1 0x00
		RETURN
		:rt JUMPDEST
	`)
	init = append(init[:len(init)-1], runtime...)
	deploy := NewTx(0, nil, 0, init)
	deploy.Sign(key)
	r, _ := c.SendTransaction(deploy)
	if !r.Status {
		t.Fatalf("deploy: %v", r.Err)
	}

	call := NewTx(1, &r.ContractAddress, 0, nil)
	call.Sign(key)
	cr, _ := c.SendTransaction(call)
	if !cr.Status {
		t.Fatalf("call: %v", cr.Err)
	}
	// Deployed in block 1, called in block 2.
	if got := cr.ReturnData[31]; got != 2 {
		t.Fatalf("NUMBER = %d, want 2", got)
	}
}

func TestIntrinsicGasEnforced(t *testing.T) {
	c := New()
	key := fundedKey(c, "cheapskate")
	to := types.MustHexToAddress("0x0000000000000000000000000000000000000011")
	tx := NewTx(0, &to, 1, nil)
	tx.GasLimit = 100
	tx.Sign(key)
	r, _ := c.SendTransaction(tx)
	if r.Status || !errors.Is(r.Err, ErrInsufficientGas) {
		t.Fatalf("got %v, want ErrInsufficientGas", r.Err)
	}
}

func TestCannotPayGas(t *testing.T) {
	c := New()
	key := secp256k1.DeterministicKey("pauper")
	to := types.MustHexToAddress("0x0000000000000000000000000000000000000012")
	tx := NewTx(0, &to, 0, nil)
	tx.Sign(key)
	r, _ := c.SendTransaction(tx)
	if r.Status || !errors.Is(r.Err, ErrCannotPayGas) {
		t.Fatalf("got %v, want ErrCannotPayGas", r.Err)
	}
}

// --- native contracts -----------------------------------------------------

// echoNative is a test native contract: it stores the caller and value of
// the last call and echoes the input; input starting with 0xff errors.
type echoNative struct {
	lastCaller types.Address
	lastValue  uint64
	calls      int
}

func (e *echoNative) Run(c *Chain, caller types.Address, value uint64, input []byte) ([]byte, error) {
	e.calls++
	if len(input) > 0 && input[0] == 0xff {
		return nil, errors.New("native: refused")
	}
	e.lastCaller = caller
	e.lastValue = value
	return input, nil
}

func TestNativeContractCall(t *testing.T) {
	c := New()
	key := fundedKey(c, "native-caller")
	addr := types.MustHexToAddress("0x00000000000000000000000000000000000000fe")
	native := &echoNative{}
	c.InstallNative(addr, native)

	if !c.IsNative(addr) {
		t.Fatal("IsNative false")
	}
	// The marker code makes the account look like a contract.
	if len(c.state.Code(addr)) == 0 {
		t.Fatal("native account has no marker code")
	}

	tx := NewTx(0, &addr, 777, []byte{1, 2, 3})
	tx.Sign(key)
	r, err := c.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Status {
		t.Fatalf("native call failed: %v", r.Err)
	}
	if string(r.ReturnData) != string([]byte{1, 2, 3}) {
		t.Fatalf("echo %x", r.ReturnData)
	}
	if native.lastCaller != key.PublicKey.Address() || native.lastValue != 777 {
		t.Fatalf("native saw %s/%d", native.lastCaller, native.lastValue)
	}
	if got := c.BalanceOf(addr); got != 777 {
		t.Fatalf("native account balance %d", got)
	}
	wantGas := uint64(IntrinsicGas) + 3*DataGasPerByte + NativeGas
	if r.GasUsed != wantGas {
		t.Fatalf("gas used %d, want %d", r.GasUsed, wantGas)
	}
}

func TestNativeContractRevertRefundsValue(t *testing.T) {
	c := New()
	key := fundedKey(c, "native-reverter")
	addr := types.MustHexToAddress("0x00000000000000000000000000000000000000fd")
	c.InstallNative(addr, &echoNative{})

	before := c.BalanceOf(key.PublicKey.Address())
	tx := NewTx(0, &addr, 5_000, []byte{0xff}) // refused by the native
	tx.Sign(key)
	r, err := c.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status {
		t.Fatal("refused call reported success")
	}
	// The value must be back with the sender; only gas was spent.
	after := c.BalanceOf(key.PublicKey.Address())
	if before-after != r.GasUsed {
		t.Fatalf("sender lost %d, want gas-only %d", before-after, r.GasUsed)
	}
	if got := c.BalanceOf(addr); got != 0 {
		t.Fatalf("native kept %d after revert", got)
	}
	// The nonce is still consumed.
	if c.NonceOf(key.PublicKey.Address()) != 1 {
		t.Fatal("nonce not consumed on revert")
	}
}
