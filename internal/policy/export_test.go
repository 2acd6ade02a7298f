package policy

// AnalyzeReturn is analysis.Analyze's Return for p. The analysis package
// imports this one, so an external test file (analyze_return_test.go)
// installs it; the soundness tests check the VM's R0 against it.
var AnalyzeReturn func(p *Program) (Interval, error)
