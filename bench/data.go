package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"

	"piql/internal/engine"
	"piql/internal/value"
)

// The benchmark owns its schemas, data and SQL texts (it does not call
// the repo's workload packages), so a later change to the program cannot
// change what the program is fed. Everything below is a function of the
// seed alone, and everything handed to the engine goes through a digest.

// newRand returns the seed's generator for one named stream. PCG is a
// specified algorithm, so the draws do not move with the Go version.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// inputs digests every SQL text and parameter value fed to the program.
type inputs struct{ h hash.Hash }

func newInputs() *inputs { return &inputs{h: sha256.New()} }

func (in *inputs) text(s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	in.h.Write(n[:])
	in.h.Write([]byte(s))
}

func (in *inputs) values(vs ...value.Value) {
	for _, v := range vs {
		in.text(v.String())
	}
}

func (in *inputs) sum() string { return hex.EncodeToString(in.h.Sum(nil)) }

// loader inserts rows through Session.Exec, digesting them, and calls
// mark every markEvery rows so set-up time is calibrated in stages.
type loader struct {
	s    *engine.Session
	in   *inputs
	mark func()
	rows int
}

const markEvery = 20000

func (l *loader) exec(sql string, params ...value.Value) error {
	l.in.text(sql)
	l.in.values(params...)
	if err := l.s.Exec(sql, params...); err != nil {
		return fmt.Errorf("load: %s: %w", sql, err)
	}
	l.rows++
	if l.rows%markEvery == 0 && l.mark != nil {
		l.mark()
	}
	return nil
}

func (l *loader) ddl(stmts []string) error {
	for _, s := range stmts {
		l.in.text(s)
		if err := l.s.Exec(s); err != nil {
			return fmt.Errorf("ddl: %w", err)
		}
	}
	return nil
}

// --- SCADr (Section 8.1.2) ---

type scadrSize struct {
	users, thoughts, subs, page int
}

var scadrDDL = []string{
	`CREATE TABLE users (
		username VARCHAR(20),
		password VARCHAR(20),
		hometown VARCHAR(30),
		PRIMARY KEY (username))`,
	`CREATE TABLE subscriptions (
		owner VARCHAR(20),
		target VARCHAR(20),
		approved BOOLEAN,
		PRIMARY KEY (owner, target),
		FOREIGN KEY (target) REFERENCES users,
		CARDINALITY LIMIT 10 (owner))`,
	`CREATE TABLE thoughts (
		owner VARCHAR(20),
		timestamp INT,
		text VARCHAR(140),
		PRIMARY KEY (owner, timestamp))`,
}

const (
	scadrInsertUser    = `INSERT INTO users VALUES (?, ?, ?)`
	scadrInsertThought = `INSERT INTO thoughts VALUES (?, ?, ?)`
	scadrInsertSub     = `INSERT INTO subscriptions VALUES (?, ?, ?)`
	scadrDeleteThought = `DELETE FROM thoughts WHERE owner = ? AND timestamp = ?`

	scadrFindUser      = `SELECT username, hometown FROM users WHERE username = [1: who]`
	scadrUsersFollowed = `SELECT u.username, u.hometown FROM subscriptions s JOIN users u
		WHERE u.username = s.target AND s.owner = [1: me]`
	scadrRecentThoughts = `SELECT timestamp, text FROM thoughts WHERE owner = [1: me]
		ORDER BY timestamp DESC LIMIT %d`
	scadrThoughtstream = `SELECT thoughts.owner, thoughts.timestamp, thoughts.text
		FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = [1: me] AND s.approved = true
		ORDER BY thoughts.timestamp DESC LIMIT %d`
)

var towns = []string{"Berkeley", "Oakland", "Richmond", "Albany", "Emeryville", "Alameda", "El Cerrito"}

func userName(i int) string { return fmt.Sprintf("u%07d", i) }

// townOf is the hometown the loader gave user i, recomputed by the
// findUser output check.
func townOf(seed int64, i int) string {
	return towns[(uint64(i)*2654435761+uint64(seed))%uint64(len(towns))]
}

func loadSCADr(l *loader, seed int64, sz scadrSize) error {
	if err := l.ddl(scadrDDL); err != nil {
		return err
	}
	r := newRand(seed, 1)
	for u := 0; u < sz.users; u++ {
		name := value.Str(userName(u))
		if err := l.exec(scadrInsertUser, name, value.Str("hunter2"), value.Str(townOf(seed, u))); err != nil {
			return err
		}
		for i := 0; i < sz.thoughts; i++ {
			ts := int64(1_000_000 + u*sz.thoughts + i)
			if err := l.exec(scadrInsertThought, name, value.Int(ts),
				value.Str(fmt.Sprintf("thought %d from %s", i, name.S))); err != nil {
				return err
			}
		}
	}
	targets := make(map[int]bool, sz.subs)
	for u := 0; u < sz.users; u++ {
		clear(targets)
		for len(targets) < sz.subs {
			v := r.IntN(sz.users)
			if v == u || targets[v] {
				continue
			}
			targets[v] = true
			if err := l.exec(scadrInsertSub, value.Str(userName(u)), value.Str(userName(v)),
				value.Bool(r.IntN(10) != 0)); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- TPC-W (Section 8.1.1), ordering mix ---

type tpcwSize struct {
	customers, items int
}

var tpcwDDL = []string{
	`CREATE TABLE customer (
		c_uname VARCHAR(20),
		c_passwd VARCHAR(20),
		c_fname VARCHAR(17),
		c_lname VARCHAR(17),
		c_email VARCHAR(50),
		c_discount INT,
		PRIMARY KEY (c_uname))`,
	`CREATE TABLE author (
		a_id INT,
		a_fname VARCHAR(20),
		a_lname VARCHAR(20),
		PRIMARY KEY (a_id))`,
	`CREATE TABLE item (
		i_id INT,
		i_title VARCHAR(60),
		i_a_id INT,
		i_pub_date INT,
		i_subject VARCHAR(60),
		i_desc VARCHAR(100),
		i_cost INT,
		i_stock INT,
		PRIMARY KEY (i_id),
		FOREIGN KEY (i_a_id) REFERENCES author)`,
	`CREATE TABLE orders (
		o_id INT,
		o_c_uname VARCHAR(20),
		o_date_time INT,
		o_total INT,
		o_status VARCHAR(16),
		PRIMARY KEY (o_id),
		FOREIGN KEY (o_c_uname) REFERENCES customer,
		CARDINALITY LIMIT 500 (o_c_uname))`,
	`CREATE TABLE order_line (
		ol_o_id INT,
		ol_seq INT,
		ol_i_id INT,
		ol_qty INT,
		PRIMARY KEY (ol_o_id, ol_seq),
		FOREIGN KEY (ol_o_id) REFERENCES orders,
		FOREIGN KEY (ol_i_id) REFERENCES item,
		CARDINALITY LIMIT 100 (ol_o_id))`,
	`CREATE TABLE cart_line (
		scl_sc_id INT,
		scl_i_id INT,
		scl_qty INT,
		PRIMARY KEY (scl_sc_id, scl_i_id),
		FOREIGN KEY (scl_i_id) REFERENCES item,
		CARDINALITY LIMIT 100 (scl_sc_id))`,
}

const (
	tpcwInsertAuthor    = `INSERT INTO author VALUES (?, ?, ?)`
	tpcwInsertItem      = `INSERT INTO item VALUES (?, ?, ?, ?, ?, ?, ?, ?)`
	tpcwInsertCustomer  = `INSERT INTO customer VALUES (?, ?, ?, ?, ?, ?)`
	tpcwInsertOrder     = `INSERT INTO orders VALUES (?, ?, ?, ?, ?)`
	tpcwInsertOrderLine = `INSERT INTO order_line VALUES (?, ?, ?, ?)`
	tpcwInsertCartLine  = `INSERT INTO cart_line VALUES (?, ?, ?)`
	tpcwDeleteCartLine  = `DELETE FROM cart_line WHERE scl_sc_id = ? AND scl_i_id = ?`
	tpcwDeleteOrderLine = `DELETE FROM order_line WHERE ol_o_id = ? AND ol_seq = ?`

	tpcwHome       = `SELECT c_uname, c_fname, c_lname, c_discount FROM customer WHERE c_uname = [1: uname]`
	tpcwNewProduct = `SELECT i_id, i_title, i_pub_date, a_fname, a_lname
		FROM item JOIN author
		WHERE i_a_id = a_id AND i_subject CONTAINS [1: subject]
		ORDER BY i_pub_date DESC LIMIT %d`
	tpcwProductDetail = `SELECT i_id, i_title, i_desc, i_cost, i_stock, a_fname, a_lname
		FROM item JOIN author
		WHERE i_a_id = a_id AND i_id = [1: itemId]`
	tpcwByAuthor = `SELECT i_id, i_title, i_cost FROM item
		WHERE i_a_id = [1: authorId]
		ORDER BY i_title LIMIT %d`
	tpcwAuthorNames = `SELECT a_id, a_fname, a_lname FROM author
		WHERE a_lname CONTAINS [1: lastName] LIMIT %d`
	tpcwByTitle = `SELECT i_title, i_id, a_fname, a_lname
		FROM item JOIN author
		WHERE i_a_id = a_id AND i_title CONTAINS [1: titleWord]
		ORDER BY i_title LIMIT %d`
	tpcwOrderCustomer = `SELECT c_uname, c_fname, c_lname, c_email FROM customer WHERE c_uname = [1: uname]`
	tpcwLastOrder     = `SELECT o_id, o_date_time, o_total, o_status FROM orders
		WHERE o_c_uname = [1: uname]
		ORDER BY o_date_time DESC LIMIT 1`
	tpcwOrderLines = `SELECT ol_seq, ol_i_id, ol_qty FROM order_line WHERE ol_o_id = [1: orderId]`
	tpcwBuyRequest = `SELECT scl_i_id, scl_qty, i_title, i_cost
		FROM cart_line scl JOIN item i
		WHERE i.i_id = scl.scl_i_id AND scl.scl_sc_id = [1: cartId]`
)

var (
	subjects = []string{
		"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS",
		"COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE",
		"MYSTERY", "NONFICTION", "PARENTING", "POLITICS", "REFERENCE",
		"RELIGION", "ROMANCE", "SELFHELP", "SCIENCE", "SCIFI", "SPORTS",
		"YOUTH", "TRAVEL",
	}
	titleWords = []string{
		"shadow", "river", "night", "garden", "empire", "secret", "stone",
		"winter", "crimson", "silent", "golden", "lost", "broken", "wild",
		"hidden", "burning", "frozen", "sacred", "forgotten", "electric",
	}
	nameWords = []string{
		"smith", "johnson", "lee", "garcia", "chen", "patel", "brown",
		"miller", "davis", "wilson", "anderson", "taylor", "moore", "martin",
	}
)

func customerName(i int) string { return fmt.Sprintf("c%07d", i) }

func pick(r *rand.Rand, words []string) string { return words[r.IntN(len(words))] }

func loadTPCW(l *loader, seed int64, sz tpcwSize) error {
	if err := l.ddl(tpcwDDL); err != nil {
		return err
	}
	r := newRand(seed, 2)
	authors := sz.items/10 + 1
	for a := 0; a < authors; a++ {
		if err := l.exec(tpcwInsertAuthor, value.Int(int64(a)),
			value.Str(pick(r, nameWords)), value.Str(pick(r, nameWords))); err != nil {
			return err
		}
	}
	for i := 0; i < sz.items; i++ {
		title := fmt.Sprintf("%s %s %s #%d", pick(r, titleWords), pick(r, titleWords), pick(r, titleWords), i)
		if err := l.exec(tpcwInsertItem, value.Int(int64(i)), value.Str(title),
			value.Int(int64(r.IntN(authors))), value.Int(int64(20000000+r.IntN(100000))),
			value.Str(pick(r, subjects)), value.Str("a fine book"),
			value.Int(int64(500+r.IntN(5000))), value.Int(int64(r.IntN(1000)))); err != nil {
			return err
		}
	}
	oid := int64(0)
	for c := 0; c < sz.customers; c++ {
		uname := customerName(c)
		if err := l.exec(tpcwInsertCustomer, value.Str(uname), value.Str("pw"),
			value.Str(pick(r, nameWords)), value.Str(pick(r, nameWords)),
			value.Str(uname+"@example.com"), value.Int(int64(r.IntN(50)))); err != nil {
			return err
		}
		oid++
		if err := l.exec(tpcwInsertOrder, value.Int(oid), value.Str(uname),
			value.Int(int64(30000000+r.IntN(100000))), value.Int(int64(1000+r.IntN(20000))),
			value.Str("shipped")); err != nil {
			return err
		}
		for line, lines := 0, 1+r.IntN(4); line < lines; line++ {
			if err := l.exec(tpcwInsertOrderLine, value.Int(oid), value.Int(int64(line)),
				value.Int(int64(r.IntN(sz.items))), value.Int(int64(1+r.IntN(3)))); err != nil {
				return err
			}
		}
	}
	return nil
}
