// Command tinyevm-run executes EVM bytecode on a simulated TinyEVM
// device and reports the result, execution statistics and the implied
// on-device cost:
//
//	tinyevm-run -code 600160020160005260206000f3
//	tinyevm-run -file contract.hex -deploy
//	tinyevm-run -file contract.hex -deploy -calldata a9059cbb...
//	tinyevm-run -code ... -disasm
//
// With -deploy, the bytecode runs as a constructor and the returned
// runtime code is installed (and then optionally called with -calldata).
// Without it, the bytecode itself is executed directly. The simulated
// device registers a constant temperature sensor so contracts using the
// IoT opcode work out of the box.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"tinyevm/internal/asm"
	"tinyevm/internal/device"
	"tinyevm/internal/evm"
	"tinyevm/internal/types"
)

func main() {
	var (
		codeHex  = flag.String("code", "", "bytecode as hex")
		file     = flag.String("file", "", "file containing hex bytecode")
		deploy   = flag.Bool("deploy", false, "treat bytecode as a constructor and deploy it")
		calldata = flag.String("calldata", "", "calldata as hex for the call")
		disasm   = flag.Bool("disasm", false, "print a disassembly and exit")
		trace    = flag.Bool("trace", false, "print every executed instruction")
	)
	flag.Parse()

	code, err := loadCode(*codeHex, *file)
	if err != nil {
		fatal(err)
	}

	if *disasm {
		fmt.Print(asm.Disassemble(code))
		return
	}

	dev := device.New("tinyevm-run")
	dev.Sensors.RegisterValue(device.SensorTemperature, 2150)
	if *trace {
		prev := dev.VM.Tracer
		dev.VM.Tracer = &printTracer{next: prev}
	}

	input, err := hexBytes(*calldata)
	if err != nil {
		fatal(fmt.Errorf("bad calldata: %w", err))
	}

	if *deploy {
		res := dev.Deploy(code, 0)
		if res.Err != nil {
			fatal(fmt.Errorf("deployment failed: %w", res.Err))
		}
		fmt.Printf("deployed to        %s\n", res.Address)
		fmt.Printf("runtime size       %d bytes\n", res.RuntimeSize)
		fmt.Printf("memory high-water  %d bytes\n", res.MemoryUsage)
		fmt.Printf("max stack pointer  %d words\n", res.MaxStackPointer)
		fmt.Printf("device time        %s\n", res.Time)
		if len(input) > 0 {
			call := dev.Call(res.Address, input, 0)
			printCall(call)
		}
		return
	}

	// Direct execution: install as code and call it.
	target := types.MustHexToAddress("0x00000000000000000000000000000000000000ee")
	dev.State.SetCode(target, code)
	printCall(dev.Call(target, input, 0))
}

func printCall(res device.CallResult) {
	if res.Err != nil {
		fatal(fmt.Errorf("execution failed: %w", res.Err))
	}
	fmt.Printf("return data        0x%x\n", res.ReturnData)
	fmt.Printf("steps              %d\n", res.Stats.Steps)
	fmt.Printf("max stack pointer  %d words\n", res.Stats.MaxStackDepth)
	fmt.Printf("peak memory        %d bytes\n", res.Stats.PeakMemory)
	fmt.Printf("device time        %s\n", res.Time)
}

type printTracer struct {
	next evm.Tracer
}

func (t *printTracer) CaptureOp(pc uint64, op evm.Opcode, stack *evm.Stack, mem uint64) {
	fmt.Fprintf(os.Stderr, "%06x  %-14s stack=%d mem=%d\n", pc, op, stack.Len(), mem)
	if t.next != nil {
		t.next.CaptureOp(pc, op, stack, mem)
	}
}

func loadCode(codeHex, file string) ([]byte, error) {
	switch {
	case codeHex != "" && file != "":
		return nil, fmt.Errorf("use either -code or -file, not both")
	case codeHex != "":
		return hexBytes(codeHex)
	case file != "":
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return hexBytes(string(raw))
	default:
		return nil, fmt.Errorf("no bytecode: use -code or -file")
	}
}

func hexBytes(s string) ([]byte, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "0x")
	if s == "" {
		return nil, nil
	}
	return hex.DecodeString(s)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tinyevm-run: %v\n", err)
	os.Exit(1)
}
