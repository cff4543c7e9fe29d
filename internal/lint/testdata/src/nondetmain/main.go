// Command nondetmain is a golden-test fixture for the nondet escape
// hatch in a main package, the one place it is honoured: the allowed
// line comes back from Run marked Allowed, and an unannotated read is
// still reported.
package main

import (
	"fmt"
	"time"
)

func main() {
	t0 := time.Now() //lint:allow nondet operator-facing timing, not simulation state
	fmt.Println("done")
	fmt.Println(time.Since(t0)) // want "time.Since reads the wall clock"
}
