// Command piqlsh is a minimal interactive PIQL shell over a fresh
// simulated cluster:
//
//	piql> CREATE TABLE users (name VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (name));
//	piql> INSERT INTO users VALUES ('ann', 'hello');
//	piql> SELECT * FROM users WHERE name = 'ann';
//	piql> EXPLAIN SELECT * FROM users WHERE name = 'ann';
//	piql> EXPLAIN LOGICAL SELECT ...;
//	piql> SELECT * FROM users WHERE name > '' ORDER BY name PAGINATE 2;
//
// Statements end with a semicolon and may span lines. Unbounded queries
// print the Performance Insight Assistant's suggestions.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"piql"
)

func main() {
	nodes := flag.Int("nodes", 4, "simulated storage nodes")
	slo := flag.Duration("slo", 0, "admission SLO on predicted p99 (0 = off; needs -train)")
	maxOps := flag.Int("maxops", 0, "admission budget on the static operation bound (0 = off)")
	enforce := flag.Bool("enforce", false, "refuse queries that violate -slo/-maxops at Prepare")
	train := flag.Bool("train", false, "train the SLO model at startup (tens of seconds); EXPLAIN then prints predicted p99")
	flag.Parse()

	db := piql.Open(piql.Config{Nodes: *nodes, SLO: *slo, MaxOps: *maxOps, Enforce: *enforce})
	var model *piql.SLOModel
	if *train {
		fmt.Println("training SLO model (tens of seconds)...")
		m, err := piql.TrainSLOModel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "piqlsh: train:", err)
			os.Exit(1)
		}
		model = m
		db.UseSLOModel(model)
	}
	fmt.Printf("PIQL shell — %d simulated storage nodes. End statements with ';'. Ctrl-D exits.\n", *nodes)
	if *enforce {
		fmt.Printf("admission control ON (slo=%v, maxops=%d)\n", *slo, *maxOps)
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("piql> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
		buf.Reset()
		if stmt != "" {
			runStatement(db, model, stmt)
		}
		prompt()
	}
	fmt.Println()
}

func runStatement(db *piql.DB, model *piql.SLOModel, stmt string) {
	upper := strings.ToUpper(stmt)
	switch {
	case strings.HasPrefix(upper, "EXPLAIN LOGICAL "):
		q, err := db.Prepare(stmt[len("EXPLAIN LOGICAL "):])
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Print(q.ExplainLogical())
	case strings.HasPrefix(upper, "EXPLAIN "):
		q, err := db.Prepare(stmt[len("EXPLAIN "):])
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Print(q.Explain())
		fmt.Println("-- static bound derivation:")
		fmt.Print(q.Bound().String())
		if model != nil {
			pred, err := model.Predict(q)
			if err != nil {
				fmt.Println("-- predicted p99: ", err)
				return
			}
			fmt.Printf("-- predicted p99: mean %v, worst interval %v\n", pred.Mean99, pred.Max99)
		}
	case strings.HasPrefix(upper, "SELECT"):
		if err := runSelect(db, stmt); err != nil {
			fmt.Println(err)
		}
	default:
		if err := db.Exec(stmt); err != nil {
			fmt.Println(err)
			return
		}
		fmt.Println("ok")
	}
}

// runSelect prints a query's result — page by page for a PAGINATE
// statement, each cursor passed through Serialize and RestoreCursor as
// an application server would ship it to the user and get it back.
func runSelect(db *piql.DB, stmt string) error {
	q, err := db.Prepare(stmt)
	if err != nil {
		return err
	}
	cur, err := q.Paginate()
	if err != nil { // no PAGINATE clause: one result
		res, err := q.Execute()
		if err != nil {
			return err
		}
		printResult(res)
		return nil
	}
	for page := 1; ; page++ {
		res, err := cur.Next()
		if err != nil || res == nil {
			return err
		}
		printResult(res)
		if cur.Done() {
			return nil
		}
		fmt.Printf("-- page %d (more)\n", page)
		if cur, err = db.RestoreCursor(cur.Serialize()); err != nil {
			return err
		}
	}
}

func printResult(res *piql.Result) {
	for i, name := range res.Names {
		if i > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(name)
	}
	fmt.Println()
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(v)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
