package core

// PlanOf wraps a hand-built operator tree as a Plan for bound_test.go,
// which is an external test package so that it can import analyze.
func PlanOf(root Physical) *Plan {
	plan, _ := newPlan(root, nil, &boundQuery{}, nil, nil) // not paginated: no refusal
	return plan
}
