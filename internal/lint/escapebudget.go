package lint

import "sort"

// EscapeBudget fails lint when a hot-path function gains a heap
// escape over its checked-in budget (escape.budget at the module
// root) — the build-diagnostic analyzer that turns the benchmark
// suite's alloc pins (the 15-allocs/op row path) into a static gate.
// The input is the compiler's own escape analysis: the driver runs
// `go build -gcflags=-m`, attributes each "escapes to heap" /
// "moved to heap" decision to its enclosing function (see escape.go),
// and populates Unit.Escapes for the packages with budgeted
// functions. Row decode, the store's reads (ReadBatch, Scan, Count),
// and the envelope codec are the gated set; the budget file is the
// allowlist.
//
// Unlike the other analyzers this one needs a build, so it only runs
// under `piql-vet -escapebudget` (which make lint invokes); in the
// ordinary run Unit.Escapes is nil and Skip keeps the analyzer out
// entirely, so //lint:allow escapebudget directives do not read as
// stale there.
var EscapeBudget = &Analyzer{
	Name: "escapebudget",
	Doc:  "hot-path functions must not exceed their checked-in heap-escape budget",
	Run:  runEscapeBudget,
	Skip: func(u *Unit) bool { return u.Escapes == nil },
}

func runEscapeBudget(pass *Pass) {
	info := pass.unit.Escapes
	if info == nil {
		return
	}
	for _, fn := range sortedBudgetKeys(info.Budget) {
		budget := info.Budget[fn]
		sites := info.Sites[fn]
		if len(sites) <= budget {
			continue
		}
		// Report at the first escape past the budget: with a stable
		// sort by position, a newly added escape late in the function
		// points at itself.
		over := sites[budget]
		pass.ReportAt(over.Pos,
			"%s has %d heap escapes, over its budget of %d (%s); keep the value on the stack, or raise the budget deliberately with `piql-vet -escapebudget -update`",
			fn, len(sites), budget, over.What)
	}
}

func sortedBudgetKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
