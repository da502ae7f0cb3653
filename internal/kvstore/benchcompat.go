package kvstore

// This file exists only for bench/, the repo benchmark's module, which
// is frozen between benchmark-archetype PRs and still calls names Client
// had before its reads became Read and Issue: Get, MultiGet, GetRange,
// GetRangeScatter and CountRange, each wrapper discarding the error,
// which is what those names always did, and Parallel, which runs
// arbitrary branches. Nothing in this module (tests included) may call
// them (`make lint` refuses a .Parallel( call in non-test code); the
// next benchmark-archetype PR moves bench/ to Read and Issue and deletes
// this file.

func (cl *Client) Get(key []byte) ([]byte, bool) {
	v, _, ok, _ := cl.Read(key, ReadOpts{})
	return v, ok
}

func (cl *Client) MultiGet(keys [][]byte) [][]byte {
	return cl.shim(RequestSet{Kind: Gets, Keys: keys}, true).Values
}

func (cl *Client) GetRange(req RangeRequest) []KV {
	return cl.shim(RequestSet{Kind: Range, Range: req}, false).Items
}

func (cl *Client) GetRangeScatter(req RangeRequest) []KV {
	return cl.shim(RequestSet{Kind: Range, Range: req}, true).Items
}

func (cl *Client) CountRange(start, end []byte) int {
	return cl.shim(RequestSet{Kind: Count, Range: RangeRequest{Start: start, End: end}}, true).N
}

func (cl *Client) shim(set RequestSet, parallel bool) RequestSet {
	cl.Issue(&set, ReadOpts{Parallel: parallel})
	return set
}

// Parallel runs fns concurrently, as the branches of one branch runner
// call, and returns when all complete. In immediate mode they run one
// after another on cl itself.
func (cl *Client) Parallel(fns ...func(sub *Client)) {
	if cl.proc == nil {
		for _, fn := range fns {
			fn(cl)
		}
		return
	}
	cl.branches(len(fns), func(sub *Client, i int) { fns[i](sub) })
}
