package tpcw

import (
	"fmt"
	"math/rand"

	"piql/internal/engine"
	"piql/internal/value"
)

// Worker drives the TPC-W ordering mix for one client thread. Each
// Interaction executes one web interaction's queries (and, for the
// ordering mix's update-heavy interactions, its writes).
type Worker struct {
	session   *engine.Session
	cfg       Config
	customers int
	items     int
	rng       *rand.Rand

	prepared map[string]*engine.Prepared
	cartSeq  int64
	orderSeq int64
	workerID int64
	lastCart int64
}

// NewWorker prepares all benchmark queries for one client thread.
func NewWorker(s *engine.Session, cfg Config, customers, items int, workerID int64) (*Worker, error) {
	w := &Worker{
		session:   s,
		cfg:       cfg,
		customers: customers,
		items:     items,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ workerID*0x9E37)),
		workerID:  workerID,
		lastCart:  -1,
	}
	w.prepared = make(map[string]*engine.Prepared)
	for name, sql := range QuerySQL() {
		p, err := s.Prepare(sql)
		if err != nil {
			return nil, fmt.Errorf("tpcw: prepare %s: %w", name, err)
		}
		w.prepared[name] = p
	}
	return w, nil
}

// Queries exposes the prepared statements by Table 1 row name.
func (w *Worker) Queries() map[string]*engine.Prepared { return w.prepared }

// interaction kinds with ordering-mix weights (Best Seller and Admin
// interactions omitted as in the paper; weights renormalized from the
// TPC-W ordering mix).
type interaction struct {
	name   string
	weight int
	run    func(w *Worker) error
}

var mix = []interaction{
	{"home", 16, (*Worker).homeWI},
	{"newProducts", 5, (*Worker).newProductsWI},
	{"productDetail", 17, (*Worker).productDetailWI},
	{"searchByAuthor", 9, (*Worker).searchByAuthorWI},
	{"searchByTitle", 10, (*Worker).searchByTitleWI},
	{"orderDisplay", 9, (*Worker).orderDisplayWI},
	{"buyRequest", 24, (*Worker).buyRequestWI}, // cart writes + query
	{"buyConfirm", 10, (*Worker).buyConfirmWI}, // order writes
}

var totalWeight = func() int {
	t := 0
	for _, m := range mix {
		t += m.weight
	}
	return t
}()

// Interaction executes one web interaction drawn from the ordering mix.
func (w *Worker) Interaction() error {
	n := w.rng.Intn(totalWeight)
	for _, m := range mix {
		if n < m.weight {
			return m.run(w)
		}
		n -= m.weight
	}
	return nil
}

func (w *Worker) randCustomer() value.Value {
	return value.Str(CustomerName(w.rng.Intn(w.customers)))
}

func (w *Worker) randItem() value.Value {
	return value.Int(int64(w.rng.Intn(w.items)))
}

func (w *Worker) homeWI() error {
	if _, err := w.prepared["Home WI"].Execute(w.session, w.randCustomer()); err != nil {
		return err
	}
	// The home page also shows promotional items: bounded PK lookups.
	for i := 0; i < 5; i++ {
		if _, err := w.prepared["Product Detail WI"].Execute(w.session, w.randItem()); err != nil {
			return err
		}
	}
	return nil
}

func (w *Worker) newProductsWI() error {
	subject := Subjects[w.rng.Intn(len(Subjects))]
	_, err := w.prepared["New Products WI"].Execute(w.session, value.Str(subject))
	return err
}

func (w *Worker) productDetailWI() error {
	_, err := w.prepared["Product Detail WI"].Execute(w.session, w.randItem())
	return err
}

func (w *Worker) searchByAuthorWI() error {
	// First resolve the author by name token, then list their items.
	name := nameWords[w.rng.Intn(len(nameWords))]
	res, err := w.prepared["Search By Author Names WI"].Execute(w.session, value.Str(name))
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return nil
	}
	aid := res.Rows[w.rng.Intn(len(res.Rows))][0]
	_, err = w.prepared["Search By Author WI"].Execute(w.session, aid)
	return err
}

func (w *Worker) searchByTitleWI() error {
	word := titleWords[w.rng.Intn(len(titleWords))]
	_, err := w.prepared["Search By Title WI"].Execute(w.session, value.Str(word))
	return err
}

func (w *Worker) orderDisplayWI() error {
	uname := w.randCustomer()
	if _, err := w.prepared["Order Display WI Get Customer"].Execute(w.session, uname); err != nil {
		return err
	}
	res, err := w.prepared["Order Display WI Get Last Order"].Execute(w.session, uname)
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return nil
	}
	_, err = w.prepared["Order Display WI Get OrderLines"].Execute(w.session, res.Rows[0][0])
	return err
}

// buyRequestWI adds items to a fresh shopping cart (writes) and renders
// the cart page (the Buy Request query).
func (w *Worker) buyRequestWI() error {
	w.cartSeq++
	cartID := w.workerID*1_000_000_000 + w.cartSeq
	lines := 1 + w.rng.Intn(3)
	for i := 0; i < lines; i++ {
		err := w.session.Exec(`INSERT INTO cart_line VALUES (?, ?, ?)`,
			value.Int(cartID), w.randItem(), value.Int(int64(1+w.rng.Intn(3))))
		if err != nil {
			// Duplicate item in cart: acceptable, skip.
			continue
		}
	}
	w.lastCart = cartID
	_, err := w.prepared["Buy Request WI"].Execute(w.session, value.Int(cartID))
	return err
}

// buyConfirmWI turns the worker's last cart into an order: reads the
// cart, inserts the order and its lines, clears the cart.
func (w *Worker) buyConfirmWI() error {
	if w.lastCart < 0 {
		return w.buyRequestWI()
	}
	cartID := w.lastCart
	res, err := w.prepared["Buy Request WI"].Execute(w.session, value.Int(cartID))
	if err != nil {
		return err
	}
	w.orderSeq++
	orderID := w.workerID*1_000_000_000 + w.orderSeq + 500_000_000
	uname := w.randCustomer()
	if err := w.session.Exec(`INSERT INTO orders VALUES (?, ?, ?, ?, ?)`,
		value.Int(orderID), uname,
		value.Int(int64(40_000_000+w.rng.Intn(1_000_000))),
		value.Int(int64(1000+w.rng.Intn(10000))),
		value.Str("pending")); err != nil {
		return err
	}
	for i, row := range res.Rows {
		if err := w.session.Exec(`INSERT INTO order_line VALUES (?, ?, ?, ?)`,
			value.Int(orderID), value.Int(int64(i)), row[0], row[1]); err != nil {
			return err
		}
	}
	for _, row := range res.Rows {
		if err := w.session.Exec(`DELETE FROM cart_line WHERE scl_sc_id = ? AND scl_i_id = ?`,
			value.Int(cartID), row[0]); err != nil {
			return err
		}
	}
	w.lastCart = -1
	return nil
}
