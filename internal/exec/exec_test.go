package exec

import (
	"bytes"
	"testing"
)

// Higher-level executor behavior (strategies, residuals, pagination,
// bounds) is exercised end-to-end in internal/engine's tests; these
// cover the package's standalone pieces.

func TestStrategyNames(t *testing.T) {
	cases := map[Strategy]string{
		Lazy:        "LazyExecutor",
		Simple:      "SimpleExecutor",
		Parallel:    "ParallelExecutor",
		Strategy(9): "Strategy(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestStreamResumeRoundTrip(t *testing.T) {
	in := map[string][]byte{
		"prefix-a": {1, 2, 3},
		"prefix-b": {},
		"":         {9},
	}
	out, err := decodeStreamResume(encodeStreamResume(in))
	if err != nil || len(out) != len(in) {
		t.Fatalf("lost entries: %v", out)
	}
	for k, v := range in {
		if !bytes.Equal(out[k], v) {
			t.Errorf("key %q: %v != %v", k, out[k], v)
		}
	}
	// Deterministic encoding (sorted keys).
	if !bytes.Equal(encodeStreamResume(in), encodeStreamResume(in)) {
		t.Error("encoding not deterministic")
	}
}

// TestStreamResumeCorruptInputs: the position is bytes from outside the
// program. No bytes are a fresh cursor; anything that does not parse is
// an error, never a panic and never a silent restart from the first page.
func TestStreamResumeCorruptInputs(t *testing.T) {
	for i, b := range [][]byte{nil, {}} {
		if m, err := decodeStreamResume(b); err != nil || m == nil || len(m) != 0 {
			t.Errorf("empty case %d: %v, %v", i, m, err)
		}
	}
	for i, b := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // huge count
		{0xFF},            // count cut short
		{2, 5, 'a'},       // truncated key
		{1, 1, 'k', 5, 1}, // truncated value
		{2, 1, 'k', 0},    // fewer entries than counted
	} {
		if m, err := decodeStreamResume(b); err == nil {
			t.Errorf("corrupt case %d decoded to %v", i, m)
		}
	}
}

func TestSuccessor(t *testing.T) {
	var sc scratch
	copy(take(&sc.keys, 3), []byte{0xFF, 0xFF, 0xFF})
	sc.reset() // an earlier run's bytes, which the successor reuses
	prefix, k := []byte{1}, []byte{2}
	s := successor(&sc, prefix, k)
	if bytes.Compare(s, []byte{1, 2}) <= 0 {
		t.Fatal("successor not greater")
	}
	if bytes.Compare(s, []byte{1, 2, 1}) >= 0 {
		t.Fatal("successor not tight")
	}
	// Inputs must not be aliased, and the result is capped.
	s[0] = 99
	if prefix[0] != 1 || k[0] != 2 || cap(s) != 3 {
		t.Fatal("successor aliased its input or is not capped")
	}
}
