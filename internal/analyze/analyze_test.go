package analyze_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"piql/internal/analyze"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/predict"
	"piql/internal/schema"
)

// scadrDDL is the SCADr schema of Section 8.1.2.
var scadrDDL = []string{
	`CREATE TABLE users (
			username VARCHAR(20),
			password VARCHAR(20),
			hometown VARCHAR(30),
			PRIMARY KEY (username)
		)`,
	`CREATE TABLE subscriptions (
			owner VARCHAR(20),
			target VARCHAR(20),
			approved BOOLEAN,
			PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES users,
			CARDINALITY LIMIT 100 (owner)
		)`,
	`CREATE TABLE thoughts (
			owner VARCHAR(20),
			timestamp INT,
			text VARCHAR(140),
			PRIMARY KEY (owner, timestamp)
		)`,
}

// scadrCatalog builds the SCADr schema.
func scadrCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	for _, ddl := range scadrDDL {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatalf("parse DDL: %v", err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatalf("add table: %v", err)
		}
	}
	return cat
}

func compile(t *testing.T, cat *schema.Catalog, src string) *core.Plan {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := core.Compile(cat, stmt.(*parser.Select))
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return plan
}

const thoughtstreamSQL = `
	SELECT thoughts.*
	FROM subscriptions s JOIN thoughts
	WHERE thoughts.owner = s.target
	  AND s.owner = [1: uname]
	  AND s.approved = true
	ORDER BY thoughts.timestamp DESC
	LIMIT 10`

func TestPKLookupBound(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `SELECT * FROM users WHERE username = [1: u]`)
	b := analyze.Plan(plan)
	if !b.Bounded {
		t.Fatalf("pk lookup classified unbounded: %s", b.Reason)
	}
	if b.Ops != 1 || b.Tuples != 1 {
		t.Errorf("bound = %d ops / %d tuples, want 1/1", b.Ops, b.Tuples)
	}
	if len(b.Chain) != 1 || b.Chain[0].Kind != "point gets" {
		t.Fatalf("chain = %+v", b.Chain)
	}
	if !strings.Contains(b.Chain[0].Derivation, "primary key") {
		t.Errorf("derivation should name the primary key, got %q", b.Chain[0].Derivation)
	}
}

func TestThoughtstreamBoundAndDerivations(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, thoughtstreamSQL)
	b := analyze.Plan(plan)
	if !b.Bounded {
		t.Fatalf("thoughtstream classified unbounded: %s", b.Reason)
	}
	// Leaf first: subscriptions scan (card-bounded), then the sorted
	// join over thoughts (limit-bounded).
	if len(b.Chain) != 2 {
		t.Fatalf("chain length = %d, want 2: %+v", len(b.Chain), b.Chain)
	}
	scan, join := b.Chain[0], b.Chain[1]
	if scan.Kind != "range scan" || scan.Ops != 1 {
		t.Errorf("leaf = %+v, want one range scan", scan)
	}
	if !strings.Contains(scan.Derivation, "CARDINALITY LIMIT 100 (owner)") {
		t.Errorf("scan derivation should cite the declared constraint, got %q", scan.Derivation)
	}
	if join.Kind != "per-key ranges" || join.Ops != 100 {
		t.Errorf("join = %+v, want 100 per-key ranges", join)
	}
	if !strings.Contains(join.Derivation, "per-key fetch at 10") {
		t.Errorf("join derivation should cite the sort+stop pushdown, got %q", join.Derivation)
	}
	if s := b.String(); !strings.Contains(s, "bounded") {
		t.Errorf("rendering should state boundedness:\n%s", s)
	}
}

// TestStoppedSortedJoinBound: a sorted join that stops at the page hands
// the operator above LIMIT tuples, while its own dereference stays
// booked at the worst case (every fetched entry read once, should the
// survivors dangle) — and says which of the two figures is which.
func TestStoppedSortedJoinBound(t *testing.T) {
	cat := scadrCatalog(t)
	stmt, err := parser.Parse(`CREATE TABLE articles (id VARCHAR(20), author VARCHAR(20), ts INT, PRIMARY KEY (id))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
		t.Fatal(err)
	}
	plan := compile(t, cat, `
		SELECT a.*, u.* FROM subscriptions s JOIN articles a JOIN users u
		WHERE a.author = s.target AND s.owner = [1: me] AND u.username = s.target
		ORDER BY a.ts DESC LIMIT 10`)
	b := analyze.Plan(plan)
	if !b.Bounded || len(b.Chain) != 4 {
		t.Fatalf("chain = %+v", b.Chain)
	}
	if b.Ops != 1+100+1000+10 || b.Tuples != 10 {
		t.Errorf("bound = %d ops / %d tuples, want 1111 / 10\n%s", b.Ops, b.Tuples, b)
	}
	join, deref, fk := b.Chain[1], b.Chain[2], b.Chain[3]
	if join.Ops != 100 || join.Tuples != 10 || !strings.Contains(join.Derivation, "≤ 1000 tuples, merged on their entry keys and stopped at 10") {
		t.Errorf("join = %+v", join)
	}
	const want = "at most 1000 batched get(s) in at most 2 request sets: 10 when no entry dangles; a dangling survivor pulls the rest in a second set, none is read twice"
	if deref.Kind != "deref gets" || deref.Ops != 1000 || deref.Tuples != 10 || deref.Derivation != want {
		t.Errorf("deref = %+v", deref)
	}
	if fk.Ops != 10 || !strings.Contains(fk.Derivation, "10 batched get(s), one per child tuple") {
		t.Errorf("fk join above the stopped join = %+v, want 10 gets", fk)
	}
	// The model prices the dereference at its worst case too.
	wantOps := []predict.Op{
		{Kind: predict.KindScan, Alpha: 100, Beta: 44},
		{Kind: predict.KindSortedJoin, Alpha: 100, AlphaJ: 10, Beta: 51},
		{Kind: predict.KindLookup, Alpha: 1000, Beta: 51},
		{Kind: predict.KindLookup, Alpha: 10, Beta: 73},
	}
	if got := b.PredictOps(); !reflect.DeepEqual(got, wantOps) {
		t.Errorf("predict ops = %+v, want %+v", got, wantOps)
	}
}

// costBasedUnbounded compiles the subscriber query the way the Section
// 8.3 baseline optimizer would: an unbounded covering scan on target.
func costBasedUnbounded(t *testing.T, cat *schema.Catalog) *core.Plan {
	t.Helper()
	stmt, err := parser.Parse(`SELECT * FROM subscriptions WHERE target = [1: t]`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := core.CompileCostBased(cat, stmt.(*parser.Select))
	if err != nil {
		t.Fatalf("cost-based compile: %v", err)
	}
	if plan.OpBound() != core.Unbounded {
		t.Fatalf("expected the cost-based plan to be unbounded:\n%s", plan.Explain())
	}
	return plan
}

func TestUnboundedClassification(t *testing.T) {
	cat := scadrCatalog(t)
	b := analyze.Plan(costBasedUnbounded(t, cat))
	if b.Bounded {
		t.Fatal("unbounded covering scan classified bounded")
	}
	if b.Ops != core.Unbounded || b.Tuples != core.Unbounded {
		t.Errorf("bound = %d/%d, want unbounded sentinels", b.Ops, b.Tuples)
	}
	if !strings.Contains(b.Offender, "IndexScan") {
		t.Errorf("offender = %q, want the index scan", b.Offender)
	}
	if !strings.Contains(b.Reason, "no cardinality constraint") {
		t.Errorf("reason = %q", b.Reason)
	}
	if len(b.Suggestions) == 0 || !strings.Contains(b.Suggestions[0], "CARDINALITY LIMIT") {
		t.Errorf("suggestions = %v", b.Suggestions)
	}
	if _, err := b.Predict(nil); err == nil {
		t.Error("Predict on an unbounded bound should fail")
	}
}

func TestPolicyAdmit(t *testing.T) {
	cat := scadrCatalog(t)
	bounded := analyze.Plan(compile(t, cat, thoughtstreamSQL)) // 104 ops
	unbounded := analyze.Plan(costBasedUnbounded(t, cat))

	var nilPolicy *analyze.Policy
	if err := nilPolicy.Admit("q", unbounded); err != nil {
		t.Errorf("nil policy must admit everything, got %v", err)
	}
	advisory := &analyze.Policy{MaxOps: 1} // Enforce off
	if err := advisory.Admit("q", unbounded); err != nil {
		t.Errorf("advisory policy must admit everything, got %v", err)
	}

	strict := &analyze.Policy{Enforce: true}
	err := strict.Admit("SELECT ...", unbounded)
	var eu *analyze.ErrUnbounded
	if !errors.As(err, &eu) {
		t.Fatalf("enforcing policy returned %v, want *ErrUnbounded", err)
	}
	if eu.Operator == "" || len(eu.Chain) == 0 || len(eu.Suggestions) == 0 {
		t.Errorf("ErrUnbounded missing context: %+v", eu)
	}
	if err := strict.Admit("q", bounded); err != nil {
		t.Errorf("no-budget policy rejected a bounded plan: %v", err)
	}

	budget := &analyze.Policy{Enforce: true, MaxOps: 10}
	err = budget.Admit("SELECT ...", bounded)
	var eo *analyze.ErrOverSLO
	if !errors.As(err, &eo) {
		t.Fatalf("budget policy returned %v, want *ErrOverSLO", err)
	}
	if eo.Ops != bounded.Ops || eo.MaxOps != 10 {
		t.Errorf("ErrOverSLO = %+v", eo)
	}
	if err := (&analyze.Policy{Enforce: true, MaxOps: bounded.Ops}).Admit("q", bounded); err != nil {
		t.Errorf("budget equal to the bound must admit, got %v", err)
	}
}

func TestPolicySLOPrediction(t *testing.T) {
	model, err := predict.Train(predict.TrainConfig{
		Nodes:             4,
		ReplicationFactor: 2,
		Seed:              1,
		Intervals:         2,
		IntervalLength:    5 * time.Second,
		RepsPerInterval:   2,
		Alphas:            []int{1, 10, 100},
		AlphaJs:           []int{1, 10},
		Betas:             []int{40, 200},
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	cat := scadrCatalog(t)
	b := analyze.Plan(compile(t, cat, thoughtstreamSQL))

	pred, err := b.Predict(model)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if pred.Max99 <= 0 {
		t.Fatalf("prediction = %+v", pred)
	}

	generous := &analyze.Policy{Enforce: true, SLO: time.Hour, Model: model}
	if err := generous.Admit("q", b); err != nil {
		t.Errorf("1h SLO rejected the thoughtstream query: %v", err)
	}
	tight := &analyze.Policy{Enforce: true, SLO: time.Nanosecond, Model: model}
	err = tight.Admit("SELECT ...", b)
	var eo *analyze.ErrOverSLO
	if !errors.As(err, &eo) {
		t.Fatalf("1ns SLO returned %v, want *ErrOverSLO", err)
	}
	if eo.Predicted <= eo.SLO || eo.Quantile != 0.9 {
		t.Errorf("ErrOverSLO = %+v", eo)
	}
}

// TestPrepareAllocations pins what a first-seen statement pays for its
// plan and its bound — the part of Prepare the benchmark's prepare_cold
// workload gates at 2 % — at the counts measured before the bound had a
// single derivation: core.Compile derives the totals without building
// the request list, analyze.Plan builds it once with exact capacity.
func TestPrepareAllocations(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	cat := scadrCatalog(t)
	for _, tc := range []struct {
		name, sql     string
		compile, both float64
	}{
		{"pk lookup", `SELECT * FROM users WHERE username = [1: u]`, 31, 39},
		{"thoughtstream", thoughtstreamSQL, 69, 125},
		{"secondary scan + deref", `SELECT * FROM users WHERE hometown = [1: h] LIMIT 10`, 38, 64},
		{"fk join", `SELECT u.* FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = [1: me]`, 49, 83},
	} {
		stmt, err := parser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*parser.Select)
		plan := compile(t, cat, tc.sql)
		for _, ix := range plan.RequiredIndexes { // so the measured compiles find their index
			if _, err := cat.AddIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
		compiling := testing.AllocsPerRun(100, func() {
			if _, err := core.Compile(cat, sel); err != nil {
				t.Fatal(err)
			}
		})
		analyzing := testing.AllocsPerRun(100, func() { analyze.Plan(plan) })
		if compiling > tc.compile || compiling+analyzing > tc.both {
			t.Errorf("%s: core.Compile %v + analyze.Plan %v allocations, want at most %v and %v in sum",
				tc.name, compiling, analyzing, tc.compile, tc.both)
		}
	}

	// The same through the engine: a first-seen text whose index exists
	// pays the parse, the compile and the bound above and a plan-cache
	// entry — no copy of the catalog (which cost 15 more).
	s := engine.New(kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil)).Session(nil)
	for _, ddl := range scadrDDL {
		if err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	texts := make([]string, 102) // AllocsPerRun's warm-up run included
	for i := range texts {
		texts[i] = fmt.Sprintf(`SELECT * FROM users WHERE hometown = 'town%03d' LIMIT 10`, i)
	}
	next := 0
	cold := func() {
		if _, err := s.Prepare(texts[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	cold() // registers and builds the index
	if got, want := testing.AllocsPerRun(100, cold), 80.0; got > want {
		t.Errorf("cold Session.Prepare: %v allocations, want at most %v", got, want)
	}
}
