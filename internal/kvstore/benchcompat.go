package kvstore

// This file exists only for bench/, the repo benchmark's module, which
// is frozen between benchmark-archetype PRs and still calls the read
// names Client had before its reads became Read, ReadBatch, Scan and
// Count. Each wrapper discards the error, which is what those names
// always did. Nothing in this module (tests included) may call them;
// the next benchmark-archetype PR moves bench/ to the four reads and
// deletes this file.

func (cl *Client) Get(key []byte) ([]byte, bool) {
	v, _, ok, _ := cl.Read(key, ReadOpts{})
	return v, ok
}

func (cl *Client) MultiGet(keys [][]byte) [][]byte {
	out, _ := cl.ReadBatch(nil, keys, ReadOpts{Parallel: true})
	return out
}

func (cl *Client) GetRange(req RangeRequest) []KV {
	kvs, _ := cl.Scan(nil, req, ReadOpts{})
	return kvs
}

func (cl *Client) GetRangeScatter(req RangeRequest) []KV {
	kvs, _ := cl.Scan(nil, req, ReadOpts{Parallel: true})
	return kvs
}

func (cl *Client) CountRange(start, end []byte) int {
	n, _ := cl.Count(start, end, ReadOpts{Parallel: true})
	return n
}
