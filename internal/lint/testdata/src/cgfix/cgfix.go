// Package cgfix pins the call-graph edge conventions the module
// analyzers lean on: which call shapes resolve to edges and which fall
// into the documented soundness gap (DESIGN.md §9). The fixture has no
// want comments — callgraph_test.go asserts directly on the edges that
// buildProgram resolves for each function below.
package cgfix

type svc struct{ n int }

func (s *svc) run() { s.n++ }

func target() {}

// DirectCall resolves the plain call edge.
func DirectCall() { target() }

// MethodValue calls through a bound method value; the callee at the
// call site is a variable, so no edge resolves — the documented
// soundness gap.
func MethodValue(s *svc) {
	f := s.run
	f()
}

// DeferredClosure calls target inside a deferred function literal;
// the call is attributed to DeferredClosure itself, not to the
// literal.
func DeferredClosure() {
	defer func() { target() }()
}

// DeferredDirect defers a direct call; deferral does not hide the
// callee.
func DeferredDirect() {
	defer target()
}

// GoBoundMethod spawns a bound method: the go statement's call
// expression names the method directly, so the edge resolves even
// though the call is asynchronous.
func GoBoundMethod(s *svc) {
	go s.run()
}

// GoFuncValue spawns through a function-typed parameter: no edge.
func GoFuncValue(f func()) {
	go f()
}
