// Package schema defines the PIQL catalog: tables, columns, primary and
// foreign keys, secondary indexes, and the paper's DDL extension —
// relationship cardinality constraints (`CARDINALITY LIMIT n (cols)`),
// which bound how many tuples may share a value combination and feed the
// optimizer's data-stop insertion (Section 4.2).
package schema

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"piql/internal/value"
)

// Column is one table column.
type Column struct {
	Name string
	Type value.Type
	// MaxLen caps string/bytes length (VARCHAR(n)); 0 = unbounded. The
	// SLO model uses it to derive the per-tuple size β.
	MaxLen int
}

// sizeEstimate returns the worst-case encoded size of the column in
// bytes, used as β by the prediction model.
func (c Column) sizeEstimate() int {
	switch c.Type {
	case value.TypeInt, value.TypeFloat:
		return 9
	case value.TypeBool:
		return 2
	case value.TypeString, value.TypeBytes:
		if c.MaxLen > 0 {
			return 1 + c.MaxLen
		}
		return 256 // unbounded strings: assume web-form scale
	default:
		return 1
	}
}

// ForeignKey declares that Columns reference the primary key of RefTable.
// It gives the optimizer the 1-tuple bound in the FK -> PK direction.
type ForeignKey struct {
	Columns  []string
	RefTable string
}

// Cardinality is the PIQL DDL extension: at most Limit rows may share any
// one combination of values for Columns.
type Cardinality struct {
	Limit   int
	Columns []string
}

// Table is a catalog entry.
type Table struct {
	Name          string
	Columns       []Column
	PrimaryKey    []string
	ForeignKeys   []ForeignKey
	Cardinalities []Cardinality

	colIndex map[string]int
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return &t.Columns[i]
}

// RowSizeEstimate returns the worst-case row size in bytes (the β of the
// prediction model for tuples of this table).
func (t *Table) RowSizeEstimate() int {
	n := 0
	for _, c := range t.Columns {
		n += c.sizeEstimate()
	}
	return n
}

// IsPrimaryKey reports whether cols covers exactly the primary key
// (order-insensitive).
func (t *Table) IsPrimaryKey(cols []string) bool {
	return coversAll(cols, t.PrimaryKey) && len(cols) >= len(t.PrimaryKey)
}

// CardinalityFor returns the tightest cardinality limit whose columns are
// all covered by the given equality columns, or 0 if none applies. A full
// primary-key match returns 1.
func (t *Table) CardinalityFor(equalityCols []string) int {
	if coversAll(equalityCols, t.PrimaryKey) {
		return 1
	}
	best := 0
	for _, c := range t.Cardinalities {
		if coversAll(equalityCols, c.Columns) {
			if best == 0 || c.Limit < best {
				best = c.Limit
			}
		}
	}
	return best
}

// CardinalityConstraint returns the tightest declared CARDINALITY LIMIT
// constraint whose columns are all covered by the given equality
// columns, or nil if none applies. Unlike CardinalityFor it does not
// treat a primary-key match as an implicit limit of 1 — it reports only
// constraints the schema author wrote down, so static analysis can name
// the declaration a bound came from.
func (t *Table) CardinalityConstraint(equalityCols []string) *Cardinality {
	var best *Cardinality
	for i := range t.Cardinalities {
		c := &t.Cardinalities[i]
		if coversAll(equalityCols, c.Columns) {
			if best == nil || c.Limit < best.Limit {
				best = c
			}
		}
	}
	return best
}

// String renders the constraint as written in DDL.
func (c *Cardinality) String() string {
	return fmt.Sprintf("CARDINALITY LIMIT %d (%s)", c.Limit, strings.Join(c.Columns, ", "))
}

// coversAll reports whether every column in want appears in have
// (case-insensitive).
func coversAll(have, want []string) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if strings.EqualFold(h, w) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// IndexField is one component of an index key.
type IndexField struct {
	Column string
	Desc   bool
	// Token indicates an inverted full-text component: the index holds
	// one entry per token of the column's text (Section 7.3).
	Token bool
}

// Index is an index over a table. For secondary indexes the stored key
// is the encoded Fields followed by the table's primary key (making
// entries unique) and the entry value is empty — lookups dereference
// into the primary record. The primary index (Primary == true) is the
// record itself: scans over it read full rows with no dereference.
type Index struct {
	Name    string
	Table   string
	Fields  []IndexField
	Primary bool
	// Limit marks a limit index: the one AddTable registers, ready, for a
	// CARDINALITY LIMIT the primary index does not count (CountingIndex),
	// so that every write counts its group with one bounded range. No
	// plan reads it, and it is retired once another ready index counts
	// every limit it counts (RetiredLimits).
	Limit bool

	layout *EntryLayout
	sig    string // Signature(), computed when a catalog registers the index
}

// EntryLayout is what AddIndex compiles, once, about the entry keys of a
// secondary index, so that nothing is re-derived per entry. An entry key
// has one component per slot below: the index namespace, then the token
// (when a field is tokenized), then the non-token fields in declaration
// order.
type EntryLayout struct {
	// Desc is each component's direction.
	Desc []bool
	// Column is the table column each component carries; -1 for the
	// namespace and the token (a word of its column, not the column).
	Column []int
	// PK is, per primary-key column in key order, the component that
	// carries it (AddIndex completes every index with the primary key).
	PK []int
	// Uncovered names a table column no component carries; "" when the
	// index covers the table.
	Uncovered string
}

// EntryLayout returns the compiled layout of a registered index; it is
// nil for an Index no catalog has taken. (The primary index has one too,
// since AddIndex hands it out as the canonical form of a secondary index
// declared over exactly the primary key.)
func (ix *Index) EntryLayout() *EntryLayout { return ix.layout }

// compileLayout fills ix.layout and ix.sig for table t, whose columns
// AddIndex has already checked the fields against.
func (ix *Index) compileLayout(t *Table) {
	ix.sig = ix.signature()
	lay := &EntryLayout{Desc: []bool{false}, Column: []int{-1}, PK: make([]int, len(t.PrimaryKey))}
	for _, f := range ix.Fields {
		if f.Token {
			lay.Desc, lay.Column = append(lay.Desc, f.Desc), append(lay.Column, -1)
		}
	}
	for _, f := range ix.Fields {
		if !f.Token {
			lay.Desc, lay.Column = append(lay.Desc, f.Desc), append(lay.Column, t.ColumnIndex(f.Column))
		}
	}
	component := make([]int, len(t.Columns)) // the component carrying each column
	for c := range component {
		component[c] = -1
	}
	for i, c := range lay.Column {
		if c >= 0 {
			component[c] = i
		}
	}
	for i, col := range t.PrimaryKey {
		lay.PK[i] = component[t.ColumnIndex(col)]
	}
	for c, i := range component {
		if i < 0 {
			lay.Uncovered = t.Columns[c].Name
			break
		}
	}
	ix.layout = lay
}

// KeyColumns returns the index field column names in order.
func (ix *Index) KeyColumns() []string {
	out := make([]string, len(ix.Fields))
	for i, f := range ix.Fields {
		out[i] = f.Column
	}
	return out
}

// String renders the index like the paper's Table 1, e.g.
// "Items(Token(I_TITLE), I_TITLE, I_ID)".
func (ix *Index) String() string {
	var parts []string
	for _, f := range ix.Fields {
		s := f.Column
		if f.Token {
			s = "Token(" + s + ")"
		}
		if f.Desc {
			s += " DESC"
		}
		parts = append(parts, s)
	}
	return fmt.Sprintf("%s(%s)", ix.Table, strings.Join(parts, ", "))
}

// IndexState is the lifecycle phase of an index in a catalog. The state
// lives in the catalog (keyed by structural signature), not in the Index
// value, so Index values stay immutable and shareable across snapshots
// while the state advances through copy-on-write catalog updates.
type IndexState int

const (
	// StateBuilding marks an index that is registered — and therefore
	// already maintained by the write path — but whose backfill has not
	// completed: it may still miss entries for pre-existing rows, so the
	// planner must not serve queries from it.
	StateBuilding IndexState = iota
	// StateReady marks a fully backfilled index, safe to query.
	StateReady
)

func (st IndexState) String() string {
	if st == StateReady {
		return "ready"
	}
	return "building"
}

// Signature identifies an index by its structure, ignoring the name, so
// the engine can deduplicate compiler-requested indexes. A registered
// index returns the signature computed when it was registered; any
// other builds it on each call.
func (ix *Index) Signature() string {
	if ix.sig != "" {
		return ix.sig
	}
	return ix.signature()
}

func (ix *Index) signature() string {
	var sb strings.Builder
	if ix.Limit {
		sb.WriteByte('#') // no identifier starts so: no index a plan asks for shares it
	}
	sb.WriteString(strings.ToLower(ix.Table))
	for _, f := range ix.Fields {
		sb.WriteByte('|')
		sb.WriteString(strings.ToLower(f.Column))
		if f.Desc {
			sb.WriteString(":d")
		}
		if f.Token {
			sb.WriteString(":t")
		}
	}
	return sb.String()
}

// Catalog is the set of tables and indexes known to an engine instance.
//
// A Catalog value is not internally synchronized: concurrent readers are
// fine, but a writer (AddTable, AddIndex) must not race with anything.
// Engines that serve concurrent sessions therefore treat catalogs as
// copy-on-write snapshots — Clone an old snapshot, mutate the clone,
// publish it atomically — so the read path never takes a lock. Tables
// and indexes are immutable once registered, which is what makes sharing
// them across snapshots (and across compiled plans) safe.
type Catalog struct {
	tables  map[string]*Table
	indexes map[string][]*Index   // by lower(table)
	state   map[string]IndexState // by index signature; absent = building
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string][]*Index),
		state:   make(map[string]IndexState),
	}
}

// Catalog returns the catalog itself, making *Catalog its own (static)
// snapshot source — see index.CatalogSource.
func (c *Catalog) Catalog() *Catalog { return c }

// Clone returns a snapshot that can be mutated independently of c. The
// Table and Index values are shared (they are immutable once added);
// only the registration maps and index slices are copied.
func (c *Catalog) Clone() *Catalog {
	nc := NewCatalog()
	for k, t := range c.tables {
		nc.tables[k] = t
	}
	for k, ixs := range c.indexes {
		nc.indexes[k] = append([]*Index(nil), ixs...)
	}
	for sig, st := range c.state {
		nc.state[sig] = st
	}
	return nc
}

// AddTable validates and registers a table.
func (c *Catalog) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	key := strings.ToLower(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("schema: table %q already exists", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %q has no columns", t.Name)
	}
	t.colIndex = make(map[string]int, len(t.Columns))
	for i, col := range t.Columns {
		lk := strings.ToLower(col.Name)
		if _, dup := t.colIndex[lk]; dup {
			return fmt.Errorf("schema: table %q: duplicate column %q", t.Name, col.Name)
		}
		t.colIndex[lk] = i
	}
	if len(t.PrimaryKey) == 0 {
		return fmt.Errorf("schema: table %q has no primary key", t.Name)
	}
	for _, pk := range t.PrimaryKey {
		if t.ColumnIndex(pk) < 0 {
			return fmt.Errorf("schema: table %q: primary key column %q does not exist", t.Name, pk)
		}
	}
	for _, fk := range t.ForeignKeys {
		for _, col := range fk.Columns {
			if t.ColumnIndex(col) < 0 {
				return fmt.Errorf("schema: table %q: foreign key column %q does not exist", t.Name, col)
			}
		}
		ref := c.tables[strings.ToLower(fk.RefTable)]
		if ref == nil && !strings.EqualFold(fk.RefTable, t.Name) {
			return fmt.Errorf("schema: table %q: foreign key references unknown table %q", t.Name, fk.RefTable)
		}
		if ref != nil && len(ref.PrimaryKey) != len(fk.Columns) {
			return fmt.Errorf("schema: table %q: foreign key to %q has %d columns, primary key has %d",
				t.Name, fk.RefTable, len(fk.Columns), len(ref.PrimaryKey))
		}
	}
	for _, card := range t.Cardinalities {
		if card.Limit <= 0 {
			return fmt.Errorf("schema: table %q: cardinality limit must be positive, got %d", t.Name, card.Limit)
		}
		if len(card.Columns) == 0 {
			return fmt.Errorf("schema: table %q: cardinality limit without columns", t.Name)
		}
		for i, col := range card.Columns {
			if t.ColumnIndex(col) < 0 {
				return fmt.Errorf("schema: table %q: cardinality column %q does not exist", t.Name, col)
			}
			if slices.ContainsFunc(card.Columns[:i], func(c string) bool { return strings.EqualFold(c, col) }) {
				return fmt.Errorf("schema: table %q: cardinality limit names column %q twice", t.Name, col)
			}
		}
	}
	c.tables[key] = t
	// The primary index is implicit: register it so the compiler's index
	// matching treats the record layout as just another access path.
	pk := &Index{Name: "pk_" + key, Table: t.Name, Primary: true}
	for _, col := range t.PrimaryKey {
		pk.Fields = append(pk.Fields, IndexField{Column: col})
	}
	c.register(t, pk)
	// A limit the record keys cannot count gets a limit index, ready at
	// once: the table is empty, so there is nothing to backfill.
	for _, card := range t.Cardinalities {
		if c.CountingIndex(t, card) != nil {
			continue
		}
		fields := make([]IndexField, len(card.Columns), len(card.Columns)+len(t.PrimaryKey))
		for i, col := range card.Columns {
			fields[i] = IndexField{Column: col}
		}
		c.register(t, &Index{
			Name:   fmt.Sprintf("limit#%s_%s", key, strings.ToLower(strings.Join(card.Columns, "_"))),
			Table:  t.Name,
			Fields: CompleteWithPK(t, fields),
			Limit:  true,
		})
	}
	return nil
}

// register adds ix, an index AddTable made, to t's list, ready.
func (c *Catalog) register(t *Table, ix *Index) {
	ix.compileLayout(t)
	key := strings.ToLower(t.Name)
	c.indexes[key] = append(c.indexes[key], ix)
	c.state[ix.Signature()] = StateReady
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	return c.tables[strings.ToLower(name)]
}

// Tables returns all tables (unordered).
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// AddIndex registers an index after validating it and completing its
// fields with the primary key (CompleteWithPK), deduplicating by
// structural signature. It returns the canonical index (the existing one
// if a structural duplicate was already present).
func (c *Catalog) AddIndex(ix *Index) (*Index, error) {
	t := c.Table(ix.Table)
	if t == nil {
		return nil, fmt.Errorf("schema: index %q on unknown table %q", ix.Name, ix.Table)
	}
	if len(ix.Fields) == 0 {
		return nil, fmt.Errorf("schema: index %q has no fields", ix.Name)
	}
	for _, f := range ix.Fields {
		col := t.Column(f.Column)
		if col == nil {
			return nil, fmt.Errorf("schema: index %q: column %q does not exist in %q", ix.Name, f.Column, ix.Table)
		}
		if f.Token && col.Type != value.TypeString {
			return nil, fmt.Errorf("schema: index %q: Token() requires a string column, %q is %s", ix.Name, f.Column, col.Type)
		}
	}
	ix.Fields = CompleteWithPK(t, slices.Clip(ix.Fields))
	sig := ix.Signature()
	for _, existing := range c.indexes[strings.ToLower(ix.Table)] {
		if existing.Signature() == sig {
			return existing, nil
		}
	}
	ix.compileLayout(t)
	c.indexes[strings.ToLower(ix.Table)] = append(c.indexes[strings.ToLower(ix.Table)], ix)
	// A new secondary index starts life building: the write path maintains
	// it from this moment, but the planner must wait for the backfill to
	// flip it ready (engine.ensureBuilt).
	c.state[sig] = StateBuilding
	return ix, nil
}

// CompleteWithPK appends to fields any primary key column no plain
// field names (a token field holds words, not the column), so index
// entries are unique and dereferenceable. fields is completed in place:
// an append may write into its spare capacity.
func CompleteWithPK(t *Table, fields []IndexField) []IndexField {
	n := len(fields)
	for _, pk := range t.PrimaryKey {
		named := false
		for _, f := range fields[:n] {
			named = named || !f.Token && strings.EqualFold(f.Column, pk)
		}
		if !named {
			fields = append(fields, IndexField{Column: pk})
		}
	}
	return fields
}

// Indexes returns the indexes on a table.
func (c *Catalog) Indexes(table string) []*Index {
	return c.indexes[strings.ToLower(table)]
}

// Counts reports whether ix can count the groups of card, a limit of its
// table t: its leading entry components past the namespace are card's
// columns, pairwise distinct, in any order. A count reads a prefix bound
// by equality on every one of them, so the order does not matter. A
// token component (an ordinal of -1, which names no column) leads the
// layout whatever the declared field order, so an index with a token
// field never counts: its owner prefix would match no entry. ix must be
// registered: the answer is read off its entry layout.
func (ix *Index) Counts(t *Table, card Cardinality) bool {
	lead := ix.layout.Column[1:] // past the namespace
	if len(lead) < len(card.Columns) {
		return false
	}
	for i, c := range lead[:len(card.Columns)] {
		named := slices.ContainsFunc(card.Columns, func(col string) bool { return t.ColumnIndex(col) == c })
		if !named || slices.Contains(lead[:i], c) {
			return false
		}
	}
	return true
}

// CountingIndex returns the index a write counts card's groups through,
// card being a limit of t: a ready secondary index that counts it, else
// the primary index when it does (the constraint's columns prefix the
// primary key), else the table's limit index that does; nil when none
// does. A building index is never one: its backfill may not have reached
// every row yet, and an undercount admits a row past the limit.
func (c *Catalog) CountingIndex(t *Table, card Cardinality) *Index {
	var pk, limit *Index
	for _, ix := range c.Indexes(t.Name) {
		switch {
		case !ix.Counts(t, card) || c.IndexState(ix) != StateReady:
		case ix.Primary:
			pk = ix
		case ix.Limit:
			limit = cmp.Or(limit, ix)
		default:
			return ix
		}
	}
	return cmp.Or(pk, limit)
}

// RetiredLimits returns the limit indexes of t that no write counts
// through any more: every limit of t that one counts, CountingIndex
// answers with an index that is not a limit index.
func (c *Catalog) RetiredLimits(t *Table) []*Index {
	var out []*Index
	for _, ix := range c.Indexes(t.Name) {
		if ix.Limit && !slices.ContainsFunc(t.Cardinalities, func(card Cardinality) bool {
			return ix.Counts(t, card) && c.CountingIndex(t, card).Limit
		}) {
			out = append(out, ix)
		}
	}
	return out
}

// DropIndex removes ix from the catalog. Like every catalog mutation it
// must only run on an unpublished clone (copy-on-write); Clone copied
// the index list, so it is cut in place.
func (c *Catalog) DropIndex(ix *Index) {
	key := strings.ToLower(ix.Table)
	c.indexes[key] = slices.DeleteFunc(c.indexes[key], func(o *Index) bool { return o == ix })
	delete(c.state, ix.Signature())
}

// IndexState returns the lifecycle state of an index in this catalog.
// Unregistered indexes report building (the conservative answer).
func (c *Catalog) IndexState(ix *Index) IndexState {
	return c.state[ix.Signature()]
}

// SetIndexReady marks an index's backfill complete. Like every catalog
// mutation it must only run on an unpublished clone (copy-on-write).
func (c *Catalog) SetIndexReady(ix *Index) {
	c.state[ix.Signature()] = StateReady
}
