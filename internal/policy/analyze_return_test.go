package policy_test

import (
	"concord/internal/policy"
	"concord/internal/policy/analysis"
)

func init() {
	policy.AnalyzeReport = func(p *policy.Program) (policy.Interval, []string, error) {
		r, err := analysis.Analyze(p)
		if err != nil {
			return policy.Interval{}, nil, err
		}
		return r.Return, r.CtxReads, nil
	}
}
