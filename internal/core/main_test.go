package core

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

// TestMain runs every test of the package with the GC ledger's self-check
// on: each ledger collection is compared with the mark-and-sweep oracle,
// and a difference fails the run. Benchmarks run without it, so they time
// the collection the program runs.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		SetLedgerCheck(true)
	}
	code := m.Run()
	if err := LedgerCheckError(); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		code = 1
	}
	os.Exit(code)
}
