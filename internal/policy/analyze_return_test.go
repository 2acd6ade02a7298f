package policy_test

import (
	"concord/internal/policy"
	"concord/internal/policy/analysis"
)

func init() {
	policy.AnalyzeReturn = func(p *policy.Program) (policy.Interval, error) {
		r, err := analysis.Analyze(p)
		if err != nil {
			return policy.Interval{}, err
		}
		return r.Return, nil
	}
}
