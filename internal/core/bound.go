package core

// RequestKind is the shape of one request set against the key/value
// store.
type RequestKind int

const (
	// Gets is a batch of parallel point reads, one per key.
	Gets RequestKind = iota
	// Range is one contiguous range read.
	Range
	// PerKeyRanges is one range read per child tuple, issued together.
	PerKeyRanges
)

// Request is what one remote operator issues in the worst case in one
// round: its own read or, with Deref, the reads that turn the
// secondary-index entries it fetched into records. The requests of a
// plan, leaf first, are its static bound; everything that states,
// words, admits or prices the bound reads them.
type Request struct {
	Node  Physical
	Deref bool
	Kind  RequestKind
	// Alpha is the keys of a Gets, the entries of a Range, the ranges of
	// PerKeyRanges; AlphaJ the entries per range of PerKeyRanges; Beta
	// the bytes per tuple: the Θ(α, β) of Section 6.1.
	Alpha, AlphaJ, Beta int
	// Ops is the key/value operations issued, Fetched the entries or
	// records they return at most, Tuples how many of those flow on to
	// the operator above (a sorted join that stops at the page keeps
	// fewer than it fetches). All three are Unbounded when no limit,
	// pinned or declared, caps the read.
	Ops, Fetched, Tuples int
}

// fetchLimit reads a fetch limit the way the executor does: 0 asks the
// store for everything.
func fetchLimit(n int) int {
	if n <= 0 {
		return Unbounded
	}
	return n
}

// walkBound is the one derivation of the static bound. Leaf first, it
// hands each request set under n to sink and each operator, with the
// tuples it emits and the operations issued up to and including it, to
// visit (either may be nil), and returns those two figures for n
// itself plus the number of request sets.
func walkBound(n Physical, sink *[]Request, visit func(n Physical, tuples, ops int)) (tuples, ops, sets int) {
	in := 0 // tuples flowing in from the child
	if c := n.Child(); c != nil {
		in, ops, sets = walkBound(c, sink, visit)
	}
	emit := func(r Request) {
		if r.Fetched == Unbounded {
			r.Ops, r.Tuples = Unbounded, Unbounded
		}
		tuples, ops, sets = r.Tuples, boundAdd(ops, r.Ops), sets+1
		if sink != nil {
			*sink = append(*sink, r)
		}
	}
	switch n := n.(type) {
	case *PKLookup:
		keys := len(n.Keys)
		emit(Request{Node: n, Kind: Gets, Alpha: keys, Beta: n.Table.RowSizeEstimate(), Ops: keys, Fetched: keys, Tuples: keys})
	case *IndexScan:
		fetch := fetchLimit(n.FetchLimit())
		beta := n.Table.RowSizeEstimate()
		emit(Request{Node: n, Kind: Range, Alpha: fetch, Beta: beta, Ops: 1, Fetched: fetch, Tuples: fetch})
		if n.NeedDeref {
			emit(Request{Node: n, Deref: true, Kind: Gets, Alpha: fetch, Beta: beta, Ops: fetch, Fetched: fetch, Tuples: fetch})
		}
	case *IndexFKJoin:
		emit(Request{Node: n, Kind: Gets, Alpha: in, Beta: n.Table.RowSizeEstimate(), Ops: in, Fetched: in, Tuples: in})
	case *SortedIndexJoin:
		fetched := boundMul(in, fetchLimit(n.PerKeyLimit))
		kept := fetched
		if n.Stop > 0 {
			kept = boundMin(fetched, n.Stop)
		}
		beta := n.Table.RowSizeEstimate()
		emit(Request{Node: n, Kind: PerKeyRanges, Alpha: in, AlphaJ: n.PerKeyLimit, Beta: beta, Ops: in, Fetched: fetched, Tuples: kept})
		if n.NeedDeref {
			// Normally Stop records in one set; a dangling entry among the
			// survivors pulls the rest in a second, so the worst case reads
			// every fetched entry once.
			emit(Request{Node: n, Deref: true, Kind: Gets, Alpha: fetched, Beta: beta, Ops: fetched, Fetched: fetched, Tuples: kept})
		}
	case *LocalStop:
		tuples = boundMin(n.K, in)
	default:
		// Selection, sort, projection; aggregation emits at most one
		// group per input tuple.
		tuples = in
	}
	if visit != nil {
		visit(n, tuples, ops)
	}
	return tuples, ops, sets
}

// Requests returns the request sets of the plan's remote operators,
// leaf first.
func (p *Plan) Requests() []Request {
	_, _, sets := walkBound(p.Root, nil, nil)
	reqs := make([]Request, 0, sets)
	walkBound(p.Root, &reqs, nil)
	return reqs
}
