package main

import (
	"fmt"
	"math/rand/v2"

	"piql/internal/schema"
	"piql/internal/value"
)

// tpcwWorker drives the TPC-W ordering mix for one client thread: eight
// interaction kinds, 34 % of the weight writing carts and orders (Best
// Seller and the Admin pages are analytical and omitted, as in the
// paper).
type tpcwWorker struct {
	st   *site
	sz   tpcwSize
	rng  *rand.Rand
	draw uint64

	cartLine                                       *schema.Table
	home, newProducts, productDetail, byAuthor     *stmt
	authorNames, byTitle, orderCustomer, lastOrder *stmt
	orderLines, buyRequest                         *stmt
	cartSeq, orderSeq, lastCart                    int64
	confirmed                                      *confirmedOrder // the last order this worker placed
}

type confirmedOrder struct {
	id    int64
	uname value.Value
	lines int
}

const tpcwPage = 50

func prepareTPCW(st *site, in *inputs, seed int64, sz tpcwSize) (*tpcwWorker, error) {
	w := &tpcwWorker{st: st, sz: sz, rng: newRand(seed, 200), lastCart: -1, cartLine: st.eng.Catalog().Table("cart_line")}
	defs := []struct {
		dst              **stmt
		name, sql, table string
		pk               func([]value.Value, value.Row) value.Row
		scan             func([]value.Value) (value.Row, int)
	}{
		{&w.home, "home", tpcwHome, "customer", col0, nil},
		{&w.newProducts, "newProducts", fmt.Sprintf(tpcwNewProduct, tpcwPage), "item", col0, nil},
		{&w.productDetail, "productDetail", tpcwProductDetail, "item", col0, nil},
		{&w.byAuthor, "searchByAuthor", fmt.Sprintf(tpcwByAuthor, tpcwPage), "item", col0, nil},
		{&w.authorNames, "authorNames", fmt.Sprintf(tpcwAuthorNames, 20), "author", col0, nil},
		{&w.byTitle, "searchByTitle", fmt.Sprintf(tpcwByTitle, tpcwPage), "item",
			func(_ []value.Value, r value.Row) value.Row { return value.Row{r[1]} }, nil},
		{&w.orderCustomer, "orderCustomer", tpcwOrderCustomer, "customer", col0, nil},
		{&w.lastOrder, "lastOrder", tpcwLastOrder, "orders", col0, nil},
		{&w.orderLines, "orderLines", tpcwOrderLines, "order_line",
			func(p []value.Value, r value.Row) value.Row { return value.Row{p[0], r[0]} },
			func(p []value.Value) (value.Row, int) { return value.Row{p[0]}, 0 }},
		{&w.buyRequest, "buyRequest", tpcwBuyRequest, "cart_line",
			func(p []value.Value, r value.Row) value.Row { return value.Row{p[0], r[0]} },
			func(p []value.Value) (value.Row, int) { return value.Row{p[0]}, 0 }},
	}
	for _, d := range defs {
		q, err := st.prepare(in, d.name, d.sql, d.table, d.pk, d.scan)
		if err != nil {
			return nil, err
		}
		*d.dst = q
	}
	return w, nil
}

var tpcwMix = []struct {
	weight int
	run    func(*tpcwWorker) bool
}{
	{16, (*tpcwWorker).homeWI},
	{5, (*tpcwWorker).newProductsWI},
	{17, (*tpcwWorker).productDetailWI},
	{9, (*tpcwWorker).searchByAuthorWI},
	{10, (*tpcwWorker).searchByTitleWI},
	{9, (*tpcwWorker).orderDisplayWI},
	{24, (*tpcwWorker).buyRequestWI}, // cart writes + query
	{10, (*tpcwWorker).buyConfirmWI}, // order writes
}

// interaction runs one web interaction drawn from the ordering mix.
func (w *tpcwWorker) interaction() bool {
	n := w.intn(100)
	for _, m := range tpcwMix {
		if n < m.weight {
			return m.run(w)
		}
		n -= m.weight
	}
	panic("tpcw: mix weights do not sum to 100")
}

func (w *tpcwWorker) intn(n int) int {
	v := w.rng.IntN(n)
	fold(&w.draw, uint64(v))
	return v
}

func (w *tpcwWorker) randCustomer() value.Value {
	return value.Str(customerName(w.intn(w.sz.customers)))
}
func (w *tpcwWorker) randItem() value.Value { return value.Int(int64(w.intn(w.sz.items))) }

func (w *tpcwWorker) homeWI() bool {
	c := w.randCustomer()
	res, err := w.st.query(w.home, c)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != c.S {
		return false
	}
	// The home page also shows promotional items: bounded PK lookups.
	for i := 0; i < 5; i++ {
		if !w.productDetailWI() {
			return false
		}
	}
	return true
}

func (w *tpcwWorker) newProductsWI() bool {
	res, err := w.st.query(w.newProducts, value.Str(w.pick(subjects)))
	return err == nil && len(res.Rows) <= tpcwPage && descending(res.Rows, 2)
}

func (w *tpcwWorker) pick(words []string) string { return words[w.intn(len(words))] }

func (w *tpcwWorker) productDetailWI() bool {
	it := w.randItem()
	res, err := w.st.query(w.productDetail, it)
	return err == nil && len(res.Rows) == 1 && res.Rows[0][0].I == it.I
}

func (w *tpcwWorker) searchByAuthorWI() bool {
	// First resolve the author by name token, then list their items.
	res, err := w.st.query(w.authorNames, value.Str(w.pick(nameWords)))
	if err != nil || len(res.Rows) > 20 {
		return false
	}
	if len(res.Rows) == 0 {
		return true
	}
	aid := res.Rows[w.intn(len(res.Rows))][0]
	res, err = w.st.query(w.byAuthor, aid)
	return err == nil && len(res.Rows) <= tpcwPage
}

func (w *tpcwWorker) searchByTitleWI() bool {
	res, err := w.st.query(w.byTitle, value.Str(w.pick(titleWords)))
	if err != nil || len(res.Rows) > tpcwPage {
		return false
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].S < res.Rows[i-1][0].S {
			return false
		}
	}
	return true
}

// orderDisplayWI shows a customer's most recent order. Once this worker
// has confirmed an order it asks for that customer, and the page must
// show exactly that order with all its lines.
func (w *tpcwWorker) orderDisplayWI() bool {
	uname := w.randCustomer()
	if w.confirmed != nil {
		uname = w.confirmed.uname
	}
	res, err := w.st.query(w.orderCustomer, uname)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != uname.S {
		return false
	}
	res, err = w.st.query(w.lastOrder, uname)
	if err != nil || len(res.Rows) != 1 {
		return false // every customer is loaded with one order
	}
	oid := res.Rows[0][0]
	lines, err := w.st.query(w.orderLines, oid)
	if err != nil || len(lines.Rows) == 0 {
		return false
	}
	if c := w.confirmed; c != nil && (oid.I != c.id || len(lines.Rows) != c.lines || res.Rows[0][3].S != "pending") {
		return false
	}
	return true
}

// shadowCartLine moves a cart line into a cart no interaction reads.
func shadowCartLine(r value.Row) value.Row {
	r[0] = value.Int(r[0].I + 5_000_000_000)
	return r
}

// buyRequestWI adds items to a fresh shopping cart (writes) and renders
// the cart page, which must show exactly the distinct items added.
func (w *tpcwWorker) buyRequestWI() bool {
	w.cartSeq++
	cartID := 1_000_000_000 + w.cartSeq
	added := 0
	for i, lines := 0, 1+w.intn(3); i < lines; i++ {
		err := w.st.insert(tpcwInsertCartLine, w.cartLine, shadowCartLine,
			value.Int(cartID), w.randItem(), value.Int(int64(1+w.intn(3))))
		if err == nil {
			added++ // a duplicate item in the cart is refused, as it should be
		}
	}
	w.lastCart = cartID
	res, err := w.st.query(w.buyRequest, value.Int(cartID))
	return err == nil && len(res.Rows) == added
}

// buyConfirmWI turns the worker's last cart into an order: reads the
// cart, inserts the order and its lines, clears the cart.
func (w *tpcwWorker) buyConfirmWI() bool {
	if w.lastCart < 0 {
		return w.buyRequestWI()
	}
	cartID := w.lastCart
	res, err := w.st.query(w.buyRequest, value.Int(cartID))
	if err != nil || len(res.Rows) == 0 {
		return false
	}
	w.orderSeq++
	orderID := 1_500_000_000 + w.orderSeq
	uname := w.randCustomer()
	// Dates rise with the sequence, so this is the customer's latest.
	if err := w.st.s.Exec(tpcwInsertOrder, value.Int(orderID), uname,
		value.Int(40_000_000+w.orderSeq), value.Int(int64(1000+w.intn(10000))),
		value.Str("pending")); err != nil {
		return false
	}
	for i, row := range res.Rows {
		if err := w.st.s.Exec(tpcwInsertOrderLine,
			value.Int(orderID), value.Int(int64(i)), row[0], row[1]); err != nil {
			return false
		}
	}
	for _, row := range res.Rows {
		if err := w.st.delete(tpcwDeleteCartLine, value.Int(cartID), row[0]); err != nil {
			return false
		}
	}
	w.lastCart = -1
	w.confirmed = &confirmedOrder{id: orderID, uname: uname, lines: len(res.Rows)}
	return true
}
