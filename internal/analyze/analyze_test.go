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
	chain := b.Chain()
	if len(chain) != 1 || chain[0].Kind != "point gets" {
		t.Fatalf("chain = %+v", chain)
	}
	if !strings.Contains(chain[0].Derivation, "primary key") {
		t.Errorf("derivation should name the primary key, got %q", chain[0].Derivation)
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
	chain := b.Chain()
	if len(chain) != 2 {
		t.Fatalf("chain length = %d, want 2: %+v", len(chain), chain)
	}
	scan, join := chain[0], chain[1]
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
	chain := b.Chain()
	if !b.Bounded || len(chain) != 4 {
		t.Fatalf("chain = %+v", chain)
	}
	if b.Ops != 1+100+1000+10 || b.Tuples != 10 {
		t.Errorf("bound = %d ops / %d tuples, want 1111 / 10\n%s", b.Ops, b.Tuples, b)
	}
	join, deref, fk := chain[1], chain[2], chain[3]
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
	// A refusal labels the operators as the chain does, the dereference
	// included.
	labels := make([]string, len(chain))
	for i, ob := range chain {
		labels[i] = ob.Operator
	}
	if got := b.OperatorChain(); deref.Operator != "└ deref articles" || !slices.Equal(got, labels) {
		t.Errorf("operator chain = %q, want %q with the deref as %q", got, labels, "└ deref articles")
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

// subscriberSQL is the subscriber query the Section 8.3 baseline
// optimizer reads with an unbounded covering scan on target, which
// subscriberScan labels.
const (
	subscriberSQL  = `SELECT * FROM subscriptions WHERE target = [1: t]`
	subscriberScan = `IndexScan(subscriptions(target, owner, approved), key=([1: t]), ascending=true, UNBOUNDED)`
)

// thoughtstreamChain labels thoughtstreamSQL's remote operators, leaf
// first, as a refusal reports them.
var thoughtstreamChain = []string{
	`IndexScan(subscriptions(owner, target), key=([1: uname]), ascending=true, limitHint=card(100), residual: s.approved = true)`,
	`SortedIndexJoin(thoughts(owner, timestamp), key=(s.target), sortProjection=(thoughts.timestamp DESC), ascending=false, limitHint=10, stop=10)`,
}

// costBasedUnbounded compiles a query the way the Section 8.3 baseline
// optimizer would: an unbounded covering scan on target.
func costBasedUnbounded(t *testing.T, cat *schema.Catalog, sql string) *core.Plan {
	t.Helper()
	stmt, err := parser.Parse(sql)
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

// TestUnboundedClassification: an unbounded covering scan has no
// operation bound with or without a stop above it. The stop caps rows,
// not reads, so under LIMIT 5 the plan still emits at most 5 tuples.
func TestUnboundedClassification(t *testing.T) {
	cat := scadrCatalog(t)
	for _, tc := range []struct {
		sql    string
		tuples int
	}{
		{subscriberSQL, core.Unbounded},
		{subscriberSQL + ` LIMIT 5`, 5},
	} {
		b := analyze.Plan(costBasedUnbounded(t, cat, tc.sql))
		if b.Bounded {
			t.Fatalf("%s: unbounded covering scan classified bounded", tc.sql)
		}
		if b.Ops != core.Unbounded || b.Tuples != tc.tuples {
			t.Errorf("%s: bound = %d ops / %d tuples, want %d / %d", tc.sql, b.Ops, b.Tuples, core.Unbounded, tc.tuples)
		}
		if !strings.Contains(b.Offender, "IndexScan") {
			t.Errorf("%s: offender = %q, want the index scan", tc.sql, b.Offender)
		}
		if !strings.Contains(b.Reason, "no cardinality constraint") {
			t.Errorf("%s: reason = %q", tc.sql, b.Reason)
		}
		if len(b.Suggestions) == 0 || !strings.Contains(b.Suggestions[0], "CARDINALITY LIMIT") {
			t.Errorf("%s: suggestions = %v", tc.sql, b.Suggestions)
		}
		if _, err := b.Predict(nil); err == nil {
			t.Errorf("%s: Predict on an unbounded bound should fail", tc.sql)
		}
	}
}

func TestPolicyAdmit(t *testing.T) {
	cat := scadrCatalog(t)
	bounded := analyze.Plan(compile(t, cat, thoughtstreamSQL)) // 104 ops
	unbounded := analyze.Plan(costBasedUnbounded(t, cat, subscriberSQL))

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
	if want := []string{subscriberScan}; eu.Operator != subscriberScan || !slices.Equal(eu.Chain, want) || len(eu.Suggestions) == 0 {
		t.Errorf("ErrUnbounded = %+v, want operator and chain %q", eu, want)
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
	if eo.Ops != bounded.Ops || eo.MaxOps != 10 || !slices.Equal(eo.Chain, thoughtstreamChain) {
		t.Errorf("ErrOverSLO = %+v, want chain %q", eo, thoughtstreamChain)
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
	if eo.Predicted <= eo.SLO || eo.Quantile != 0.9 || !slices.Equal(eo.Chain, thoughtstreamChain) {
		t.Errorf("ErrOverSLO = %+v, want chain %q", eo, thoughtstreamChain)
	}
}

// TestPrepareAllocations pins what a first-seen statement pays for its
// plan and its bound — the part of Prepare the benchmark's prepare_cold
// workload gates at 2 % — and what a cached one pays for re-admission.
// core.Compile derives the totals without building the request list,
// renders no key expression, reads each candidate index's signature as
// its catalog stored it, sizes the projection, the relations and every
// predicate list once and joins no display name (TestBindAllocations
// pins bind and Phase I's share, TestPhase2Allocations Phase II's: its
// index fields live on the stack and an existing index costs nothing);
// the parse lexes into one token slice; analyze.Plan builds the list
// once with exact capacity, into a bound of numbers: no derivation,
// label or literal is worded until someone reads it.
func TestPrepareAllocations(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	const analyzeAllocs = 2 // the Bound and its request list
	cat := scadrCatalog(t)
	for _, tc := range []struct {
		name, sql string
		compile   float64
	}{
		{"pk lookup", `SELECT * FROM users WHERE username = [1: u]`, 11},
		{"thoughtstream", thoughtstreamSQL, 17},
		{"secondary scan + deref", `SELECT * FROM users WHERE hometown = [1: h] LIMIT 10`, 12},
		{"fk join", `SELECT u.* FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = [1: me]`, 15},
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
		if compiling > tc.compile || analyzing > analyzeAllocs {
			t.Errorf("%s: core.Compile %v and analyze.Plan %v allocations, want at most %v and %v",
				tc.name, compiling, analyzing, tc.compile, analyzeAllocs)
		}
	}

	// The same through the engine: a first-seen text whose index exists
	// pays the parse, the compile and the bound above and a plan-cache
	// entry — no copy of the catalog (which cost 15 more).
	eng := engine.New(kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil))
	s := eng.Session(nil)
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
	if got, want := testing.AllocsPerRun(100, cold), 21.0; got > want {
		t.Errorf("cold Session.Prepare: %v allocations, want at most %v", got, want)
	}

	// A cached text under an enforcing budget is admitted again on every
	// Prepare (the policy may have tightened since it was cached), and
	// admission reads only the bound's numbers.
	eng.SetAdmission(&analyze.Policy{Enforce: true, MaxOps: 100})
	hit := func() {
		if _, err := s.Prepare(texts[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, hit); got != 0 {
		t.Errorf("cache-hit Session.Prepare under an enforcing budget: %v allocations, want 0", got)
	}
}
