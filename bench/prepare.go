package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"

	"piql/internal/analyze"
	"piql/internal/core"
)

// prepare_cold: every interaction is Session.Prepare of a text the
// engine has not seen, then one Execute against a tiny dataset. The
// parser, the compiler, the analyzer and admission control do the work
// and the executor almost none: scadr_home's mirror image.

const (
	coldEpoch   = 10000 // interactions per engine, so the never-evicted plan cache stays this small
	coldUsers   = 100
	coldItems   = 200
	coldMaxOps  = 150 // admission budget: every good template's bound is below it, the over-budget text's above
	coldRefused = 20  // one text in coldRefused must be refused (5 %)
)

var (
	coldSCADr = scadrSize{users: coldUsers, thoughts: 10, subs: 10, page: 10}
	coldTPCW  = tpcwSize{customers: coldUsers, items: coldItems}
)

// coldText is one first-seen text and what must come of it.
type coldText struct {
	sql     string
	rows    int  // exact row count expected, or -1 for "at most limit"
	limit   int  // row cap when rows is -1
	refused byte // 0 admitted; 'u' refused as not scale-independent; 'o' refused as over the budget
}

// coldTemplates make the k-th text of an epoch. No two texts of an epoch
// are equal, while the plan shapes stay those of SCADr and TPC-W. Where a
// filter may follow the remote operators, an always-true != predicate on
// a literal that differs for every k makes the text new; a scan under a
// LIMIT admits no such filter (it would unbound the scan), so there the
// k-th text is the k-th combination of key literal and LIMIT, or carries
// an always-true range on the sort column.
var coldTemplates = []func(k int, r *rand.Rand) coldText{
	func(k int, r *rand.Rand) coldText { // findUser
		return coldText{sql: fmt.Sprintf(`SELECT username, hometown FROM users
			WHERE username = '%s' AND password != 'p%d'`, userName(r.IntN(coldUsers)), k), rows: 1}
	},
	func(k int, r *rand.Rand) coldText { // usersFollowed
		return coldText{sql: fmt.Sprintf(`SELECT u.username, u.hometown FROM subscriptions s JOIN users u
			WHERE u.username = s.target AND s.owner = '%s' AND u.password != 'p%d'`, userName(r.IntN(coldUsers)), k), rows: 10}
	},
	func(k int, r *rand.Rand) coldText { // recentThoughts
		limit := 1 + r.IntN(10)
		return coldText{sql: fmt.Sprintf(`SELECT timestamp, text FROM thoughts
			WHERE owner = '%s' AND timestamp < %d ORDER BY timestamp DESC LIMIT %d`,
			userName(r.IntN(coldUsers)), 3_000_000+k, limit), rows: limit}
	},
	func(k int, _ *rand.Rand) coldText { // thoughtstream
		j := k / coldKinds
		limit := 1 + j/coldUsers
		return coldText{sql: fmt.Sprintf(`SELECT thoughts.owner, thoughts.timestamp, thoughts.text
			FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = '%s' AND s.approved = true
			ORDER BY thoughts.timestamp DESC LIMIT %d`, userName(j%coldUsers), limit), rows: -1, limit: limit}
	},
	func(k int, r *rand.Rand) coldText { // TPC-W home
		return coldText{sql: fmt.Sprintf(`SELECT c_uname, c_fname, c_lname, c_discount FROM customer
			WHERE c_uname = '%s' AND c_passwd != 'p%d'`, customerName(r.IntN(coldUsers)), k), rows: 1}
	},
	func(k int, r *rand.Rand) coldText { // TPC-W product detail
		return coldText{sql: fmt.Sprintf(`SELECT i_id, i_title, i_desc, i_cost, i_stock, a_fname, a_lname
			FROM item JOIN author WHERE i_a_id = a_id AND i_id = %d AND i_desc != 'd%d'`, r.IntN(coldItems), k), rows: 1}
	},
	func(k int, _ *rand.Rand) coldText { // TPC-W new products
		j := k / coldKinds
		limit := 1 + j/len(subjects)
		return coldText{sql: fmt.Sprintf(`SELECT i_id, i_title, i_pub_date, a_fname, a_lname
			FROM item JOIN author
			WHERE i_a_id = a_id AND i_subject CONTAINS '%s'
			ORDER BY i_pub_date DESC LIMIT %d`, subjects[j%len(subjects)], limit), rows: -1, limit: limit}
	},
	func(k int, _ *rand.Rand) coldText { // TPC-W last orders; every customer is loaded with one
		j := k / coldKinds
		return coldText{sql: fmt.Sprintf(`SELECT o_id, o_date_time, o_total, o_status FROM orders
			WHERE o_c_uname = '%s'
			ORDER BY o_date_time DESC LIMIT %d`, customerName(j%coldUsers), 1+j/coldUsers), rows: 1}
	},
}

const coldKinds = 8 // len(coldTemplates), as a constant the templates can use

// coldRefusedTemplates must be refused with a typed error: the first by
// the compiler (no bound exists), the second by admission control (a
// bound exists and exceeds coldMaxOps).
var coldRefusedTemplates = []func(k int, r *rand.Rand) coldText{
	func(k int, _ *rand.Rand) coldText {
		return coldText{sql: fmt.Sprintf(`SELECT owner, timestamp FROM thoughts WHERE text = 't%d'`, k), refused: 'u'}
	},
	func(k int, r *rand.Rand) coldText {
		return coldText{sql: fmt.Sprintf(`SELECT i_id, i_title FROM item
			WHERE i_subject CONTAINS '%s'
			ORDER BY i_pub_date DESC LIMIT %d`, pick(r, subjects), 400+k/coldRefused), refused: 'o'}
	},
}

// coldTexts generates one epoch's texts, digesting them.
func coldTexts(in *inputs, r *rand.Rand, n int) []coldText {
	out := make([]coldText, n)
	for k := range out {
		tmpl := coldTemplates[k%len(coldTemplates)]
		if k%coldRefused == coldRefused-1 {
			tmpl = coldRefusedTemplates[(k/coldRefused)%len(coldRefusedTemplates)]
		}
		out[k] = tmpl(k, r)
		in.text(out[k].sql)
	}
	return out
}

// newColdSite builds one epoch's engine: both schemas with a hundred
// users, every index the templates need already built, and an enforcing
// admission policy.
func newColdSite(cfg config, in *inputs, st *stager) (*site, error) {
	site := newSite(4, cfg.seed, nil)
	l := &loader{s: site.s, in: in}
	if err := loadSCADr(l, cfg.seed, coldSCADr); err != nil {
		return nil, err
	}
	if err := loadTPCW(l, cfg.seed, coldTPCW); err != nil {
		return nil, err
	}
	site.eng.SetAdmission(&analyze.Policy{Enforce: true, MaxOps: coldMaxOps})
	r := newRand(cfg.seed, 3)
	err := finishBuild(site, st, l.rows, func() error {
		for i, tmpl := range coldTemplates {
			// The trailing space makes this a text no epoch contains,
			// with the plan (and so the indexes) of one it does.
			if _, err := site.prepare(in, fmt.Sprintf("cold%d", i), tmpl(i, r).sql+" ", "users", nil, nil); err != nil {
				return err
			}
		}
		return nil
	})
	return site, err
}

// coldInteraction prepares one first-seen text and, if it is admitted,
// executes it once. It reports whether the outcome is the expected one:
// for a text that must be refused, exactly the typed refusal.
func coldInteraction(site *site, t *coldText) bool {
	p, err := site.coldPrepare(t.sql)
	switch t.refused {
	case 'u':
		var nsi *core.NotScaleIndependentError
		return errors.As(err, &nsi)
	case 'o':
		var over *analyze.ErrOverSLO
		return errors.As(err, &over)
	}
	if err != nil {
		return false
	}
	res, err := site.coldExecute(p)
	if err != nil {
		return false
	}
	if t.rows >= 0 {
		return len(res.Rows) == t.rows
	}
	return len(res.Rows) <= t.limit
}

func runPrepareCold(cfg config, k *refKernel) (*report, error) {
	if cfg.trace != "" {
		return runPrepareColdTraced(cfg, k)
	}
	const (
		perSecond = coldEpoch // one epoch per requested second
		window    = 1000
		warmup    = 2000
	)
	var (
		total               = perSecond * cfg.seconds
		epochs              = (total + coldEpoch - 1) / coldEpoch
		in                  = newInputs()
		st                  = &stager{k: k}
		rec                 = newRecorder(k, total)
		r                   = newRand(cfg.seed, 4)
		setupNorm, setupRaw []float64
		c                   counts
		kvOps               int64
		site                *site
	)
	// Epoch -1 is the warm-up: its engine is built and used untimed.
	for e := -1; e < epochs; e++ {
		site = nil
		runtime.GC() // the previous epoch's engine and its plans are garbage now
		st.begin()
		var err error
		if site, err = newColdSite(cfg, in, st); err != nil {
			return nil, err
		}
		n := warmup
		if e >= 0 {
			n = min(coldEpoch, total-e*coldEpoch)
			// setup_s is what a whole run's engine builds cost: each
			// epoch's build scaled to the run, the median taken later.
			norm, raw := st.seconds()
			setupNorm, setupRaw = append(setupNorm, norm*float64(epochs)), append(setupRaw, raw*float64(epochs))
		}
		texts := coldTexts(in, r, n)
		next := 0
		interact := func() bool {
			ok := coldInteraction(site, &texts[next])
			next++
			return ok
		}
		if e < 0 {
			for range texts {
				if !interact() {
					return nil, fmt.Errorf("prepare_cold: warm-up text %d had the wrong outcome: %s", next-1, texts[next-1].sql)
				}
			}
			continue
		}
		rec.begin()
		ops0 := site.cluster.TotalOps()
		for done := 0; done < n; done += window {
			rec.window(min(window, n-done), interact)
		}
		c = rec.pause()
		kvOps += site.cluster.TotalOps() - ops0
	}
	c.kvOps = float64(kvOps)
	heap := heapLiveMB()
	runtime.KeepAlive(site)

	rep := newReport(cfg, in)
	rep.Attempted, rep.Failed, rep.Samples = rec.attempted, rec.failed, len(rec.lat)
	rep.Metrics = endToEnd(rec, c, setupNorm, setupRaw, heap, false)
	return rep, nil
}

// runPrepareColdTraced traces one epoch's engine: the Prepare ladder
// over alternating blocks, then the probes on SCADr's thoughts.
func runPrepareColdTraced(cfg config, k *refKernel) (*report, error) {
	in, st := newInputs(), &stager{k: k}
	heap0 := heapLiveMB()
	st.begin()
	site, err := newColdSite(cfg, in, st)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metric)
	st.setupMetrics(out, site.cluster, heap0)
	const warmup = 1000
	texts := coldTexts(in, newRand(cfg.seed, 4), warmup+tracedBlocks*tracedPerBlock)
	next := 0
	interact := func() bool {
		ok := coldInteraction(site, &texts[next])
		next++
		return ok
	}
	for i := 0; i < warmup; i++ {
		if !interact() {
			return nil, fmt.Errorf("prepare_cold: warm-up text %d had the wrong outcome: %s", i, texts[i].sql)
		}
	}
	site.enableLadder()
	var tp tracedPhase
	tp.run(k, site, interact)
	return finishTraced(cfg, k, in, &tp, site, scadrProbeInputs(site, coldSCADr), out)
}
