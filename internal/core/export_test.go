package core

// ForceFullGC makes t's next collection the full mark-and-sweep — the
// ledger's oracle — so external benchmarks can time the two paths.
func ForceFullGC(t *Tree) { t.led.full = "forced" }
