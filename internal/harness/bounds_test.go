package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/predict"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

// TestWorkloadBoundsGolden pins, for every query of the SCADr and TPC-W
// workloads and three shapes they lack, the plan, its per-operator bound with the derivation texts,
// and the Θ(α, β) list handed to the SLO model. A change to the bound is
// a reviewed diff of testdata/bounds.golden:
//
//	go test ./internal/harness -run TestWorkloadBoundsGolden -update
func TestWorkloadBoundsGolden(t *testing.T) {
	var got bytes.Buffer
	render := func(workload string, qs map[string]*engine.Prepared) {
		names := make([]string, 0, len(qs))
		for name := range qs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q := qs[name]
			b := q.Bound()
			fmt.Fprintf(&got, "== %s / %s\n%s%s  ops=%d tuples=%d predict=%+v\n\n",
				workload, name, q.Plan().Explain(), b, b.Ops, b.Tuples, b.PredictOps())
		}
	}
	session := func(ddl []string) *engine.Session {
		s := engine.New(kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 2, Seed: 3}, nil)).Session(nil)
		for _, d := range ddl {
			if err := s.Exec(d); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	scfg := scadr.DefaultConfig()
	sw, err := scadr.NewWorker(session(scadr.DDL(scfg)), scfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	render("scadr", sw.Queries())

	tcfg := tpcw.DefaultConfig()
	tw, err := tpcw.NewWorker(session(tpcw.DDL(tcfg)), tcfg, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	render("tpcw", tw.Queries())

	// Shapes no workload query has: a stopped sorted join that has to
	// dereference what it keeps, and the two kinds of pager.
	shapes := map[string]*engine.Prepared{}
	ss := session(scadr.DDL(scfg))
	for name, sql := range map[string]string{
		"Thoughtstream By Text": `
			SELECT thoughts.owner, thoughts.text FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = [1: me] AND s.approved = true
			ORDER BY thoughts.text LIMIT 10`,
		"Recent Thoughts Paginated": `
			SELECT timestamp, text FROM thoughts WHERE owner = [1: me]
			ORDER BY timestamp DESC PAGINATE 10`,
		"Thoughtstream Paginated": `
			SELECT thoughts.owner, thoughts.timestamp, thoughts.text FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = [1: me] AND s.approved = true
			ORDER BY thoughts.timestamp DESC PAGINATE 10`,
	} {
		if shapes[name], err = ss.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	}
	render("shapes", shapes)

	const path = "testdata/bounds.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("bounds differ from %s (regenerate with -update and review the diff)\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}

// TestThoughtstreamOps pins what a cell of the Figure 6 heat map asks
// the model: the compiled thoughtstream's own scan and sorted join, the
// subscription limit as α and the page as αj, β from the schema.
func TestThoughtstreamOps(t *testing.T) {
	for _, cell := range [][2]int{{100, 10}, {500, 50}} {
		subs, page := cell[0], cell[1]
		got, err := ThoughtstreamOps(subs, page)
		if err != nil {
			t.Fatal(err)
		}
		want := []predict.Op{
			{Kind: predict.KindScan, Alpha: subs, Beta: 44},
			{Kind: predict.KindSortedJoin, Alpha: subs, AlphaJ: page, Beta: 171},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("thoughtstream(%d subscriptions, page %d) = %+v, want %+v", subs, page, got, want)
		}
	}
}
