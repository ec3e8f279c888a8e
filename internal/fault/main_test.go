package fault

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"pmoctree/internal/core"
)

// TestMain runs the chaos, construct and router soaks with the
// GC ledger's self-check on: every ledger collection of every tree they
// build is compared with the mark-and-sweep oracle, and a difference fails
// the run.
func TestMain(m *testing.M) {
	flag.Parse()
	core.SetLedgerCheck(true)
	code := m.Run()
	if err := core.LedgerCheckError(); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		code = 1
	}
	os.Exit(code)
}
