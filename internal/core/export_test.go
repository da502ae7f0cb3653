package core

// PlanOf wraps a hand-built operator tree as a Plan for bound_test.go,
// which is an external test package so that it can import analyze.
func PlanOf(root Physical) *Plan { return newPlan(root, nil, &boundQuery{}, nil, nil) }
