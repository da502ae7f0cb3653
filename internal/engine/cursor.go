package engine

import (
	"encoding/binary"
	"fmt"

	"piql/internal/exec"
	"piql/internal/value"
)

// Cursor is a client-side cursor over a PAGINATE query (Section 4.1).
// It is resumable: Serialize captures its full state in a small byte
// string that can be shipped to the user with the page and restored on
// any application server with Engine.RestoreCursor — no server-side
// cursor state exists anywhere.
type Cursor struct {
	prepared *Prepared
	params   value.Row
	resume   []byte // exec.Result.Resume of the last page
	done     bool
}

// Paginate opens a cursor over a PAGINATE query.
func (p *Prepared) Paginate(params ...value.Value) (*Cursor, error) {
	if p.plan.PageSize == 0 {
		return nil, fmt.Errorf("engine: %q has no PAGINATE clause", p.sql)
	}
	return &Cursor{prepared: p, params: params}, nil
}

// Next fetches the next page. It returns nil when the cursor is
// exhausted.
func (c *Cursor) Next(s *Session) (*exec.Result, error) {
	if c.done {
		return nil, nil
	}
	res, err := s.run(c.prepared.plan, c.params, c.resume)
	if err != nil {
		return nil, err
	}
	if res.More {
		c.resume = res.Resume
	} else {
		c.done = true
	}
	return res, nil
}

// Done reports whether the cursor is exhausted.
func (c *Cursor) Done() bool { return c.done }

// cursorVersion guards the serialized layout: version, done flag, then
// query text, parameters and the pager's position, each length-prefixed.
const cursorVersion = 2

// Serialize captures the cursor's state: query text, parameters, and
// the position of the plan's pager. The result is small — typically
// under a hundred bytes plus the query text.
func (c *Cursor) Serialize() []byte {
	buf := []byte{cursorVersion, 0}
	if c.done {
		buf[1] = 1
	}
	buf = appendBytes(buf, []byte(c.prepared.sql))
	buf = appendBytes(buf, value.EncodeRow(c.params))
	return appendBytes(buf, c.resume)
}

// RestoreCursor reconstructs a cursor from Serialize output on any
// engine instance (re-preparing the query if needed). The bytes have been
// in the user's hands: the layout is checked here, the statement goes
// through Prepare — compiler and admission — like any other, and the
// position is checked by the pager against its own range on the next page.
func (e *Engine) RestoreCursor(s *Session, data []byte) (*Cursor, error) {
	if len(data) < 2 || data[0] != cursorVersion {
		return nil, fmt.Errorf("engine: unsupported cursor version")
	}
	var fields [3][]byte // query text, parameters, position
	rest := data[2:]
	for i := range fields {
		var err error
		if fields[i], rest, err = readBytes(rest); err != nil {
			return nil, fmt.Errorf("engine: corrupt cursor: %w", err)
		}
	}
	params, err := value.DecodeRow(fields[1])
	if err != nil {
		return nil, fmt.Errorf("engine: corrupt cursor params: %w", err)
	}
	p, err := s.Prepare(string(fields[0]))
	if err != nil {
		return nil, err
	}
	if p.plan.PageSize == 0 {
		return nil, fmt.Errorf("engine: restored cursor for non-paginated query")
	}
	return &Cursor{prepared: p, params: params, resume: fields[2], done: data[1] == 1}, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readBytes(b []byte) (payload, rest []byte, err error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return nil, nil, fmt.Errorf("truncated length-prefixed field")
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}
