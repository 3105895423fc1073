package tracecheck

import "testing"

// The word path counts checks by rule index and Finish labels them
// through Rules, so the two orders must agree.
func TestRuleIndexMatchesRules(t *testing.T) {
	want := map[rule]string{
		ruleRecord: RuleRecord, ruleCFGEdge: RuleCFGEdge,
		ruleMemCount: RuleMemCount, ruleMemAddr: RuleMemAddr,
		ruleNest: RuleNest, ruleSched: RuleSched,
		ruleEpoch: RuleEpoch, ruleSpecial: RuleSpecial,
	}
	if len(Rules) != int(numRules) || len(want) != int(numRules) {
		t.Fatalf("%d rules, %d indices", len(Rules), numRules)
	}
	for r, name := range want {
		if Rules[r] != name {
			t.Errorf("Rules[%d] = %q, want %q", r, Rules[r], name)
		}
	}
}
