package policy

// AnalyzeReport is what the soundness tests check the VM against: for p,
// analysis.Analyze's Return and its CtxReads, the context words p can
// load. The analysis package imports this one, so an external test file
// (analyze_return_test.go) installs it.
var AnalyzeReport func(p *Program) (ret Interval, ctxReads []string, err error)
