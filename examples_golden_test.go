package tinyevm_test

// Every example program runs end to end and must print exactly the
// stdout recorded in examples/<name>/testdata/stdout.golden. The
// examples deploy and call contracts, open, pay and settle channels and
// route payments, so a change anywhere under them that alters what a
// user sees shows up here. To record a deliberate change, run
//
//	go run ./examples/<name> > examples/<name>/testdata/stdout.golden

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// exampleMasks blanks output that legitimately differs between runs:
// payment-routing draws its hash-lock preimage at random.
var exampleMasks = map[string]*regexp.Regexp{
	"payment-routing": regexp.MustCompile(`hash lock 0x[0-9a-f]{64} resolved`),
}

func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	for _, main := range mains {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(dir, "testdata", "stdout.golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./"+dir)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, stderr.Bytes())
			}
			got := stdout.Bytes()
			if re := exampleMasks[name]; re != nil {
				masked := []byte("hash lock 0x… resolved")
				got, want = re.ReplaceAll(got, masked), re.ReplaceAll(want, masked)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stdout differs from testdata/stdout.golden\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}
