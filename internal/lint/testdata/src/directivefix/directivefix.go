// Package directivefix is a golden-test fixture for //lint:allow
// validation (the "directive" pseudo-check).
package directivefix

func wellFormed() int {
	x := 1 //lint:allow errcheck a well-formed directive is never reported
	return x
}

func bareDirective() int {
	y := 2 //lint:allow
	// want "malformed directive"
	return y
}

func missingReason() int {
	z := 3 //lint:allow nondet
	// want "malformed directive"
	return z
}

func unknownCheck() int {
	w := 4 //lint:allow maskchek typo in the check name
	// want "unknown check"
	return w
}
