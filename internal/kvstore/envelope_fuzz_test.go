package kvstore

import (
	"bytes"
	"testing"
)

// TestParseEnvelopeRoundTrip pins the codec on well-formed input: what
// makeEnvelope writes, parseEnvelope reads back exactly, agreeing with
// the unchecked accessors.
func TestParseEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		ver  Version
		tomb bool
		val  []byte
	}{
		{Version{}, false, nil},
		{Version{TS: 1, Client: 2}, false, []byte("value")},
		{Version{TS: -1, Client: -9}, true, nil},
		{Version{TS: 1 << 60, Client: 7}, true, []byte("tombstones keep payloads empty by convention, not format")},
	}
	for _, tc := range cases {
		env := makeEnvelope(tc.ver, tc.tomb, tc.val)
		ver, tomb, val, err := parseEnvelope(env)
		if err != nil {
			t.Fatalf("parseEnvelope(%x): %v", env, err)
		}
		if ver != tc.ver || tomb != tc.tomb || !bytes.Equal(val, tc.val) {
			t.Fatalf("round trip (%v, %v, %q) -> (%v, %v, %q)", tc.ver, tc.tomb, tc.val, ver, tomb, val)
		}
	}
}

// TestParseEnvelopeRejects pins the two malformed classes.
func TestParseEnvelopeRejects(t *testing.T) {
	if _, _, _, err := parseEnvelope(make([]byte, envHeader-1)); err != errEnvelopeShort {
		t.Errorf("short envelope: err = %v", err)
	}
	bad := makeEnvelope(Version{TS: 1}, false, nil)
	bad[16] = 0x80
	if _, _, _, err := parseEnvelope(bad); err != errEnvelopeFlags {
		t.Errorf("unknown flags: err = %v", err)
	}
}

// TestApplyIfNewerRejectsMalformed is the regression for the crash the
// guard in applyIfNewer prevents: a truncated envelope used to panic
// in envVersion (index out of range) while the node mutex was held.
func TestApplyIfNewerRejectsMalformed(t *testing.T) {
	c := New(Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil)
	n := c.nodes[0]
	if n.applyIfNewer([]byte("k"), []byte("short")) {
		t.Error("malformed envelope applied")
	}
	if got, ok := n.trees.Get([]byte("k")); ok {
		t.Errorf("malformed envelope stored: %x", got)
	}
	env := makeEnvelope(Version{TS: 5, Client: 1}, false, []byte("v"))
	if !n.applyIfNewer([]byte("k"), env) {
		t.Error("well-formed envelope rejected")
	}
}

// FuzzEnvelope drives the codec with arbitrary bytes: parseEnvelope
// must never panic, must reject exactly the malformed inputs, and every
// accepted envelope must round-trip byte-for-byte through makeEnvelope
// and agree with the unchecked accessors. The checked-in seed corpus
// (testdata/fuzz/FuzzEnvelope) runs under plain `go test`, so make ci
// exercises these cases without -fuzz.
func FuzzEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789abcdef")) // one byte short of a header
	f.Add(makeEnvelope(Version{TS: 1, Client: 2}, false, []byte("v")))
	f.Add(makeEnvelope(Version{TS: -1, Client: 9}, true, nil))
	f.Fuzz(func(t *testing.T, env []byte) {
		ver, tomb, val, err := parseEnvelope(env)
		if err != nil {
			if len(env) >= envHeader && env[16]&^envTombstone == 0 {
				t.Fatalf("rejected well-formed envelope %x: %v", env, err)
			}
			return
		}
		if got := makeEnvelope(ver, tomb, val); !bytes.Equal(got, env) {
			t.Fatalf("round trip: %x -> %x", env, got)
		}
		if ver != envVersion(env) || tomb != envIsTombstone(env) || !bytes.Equal(val, envValue(env)) {
			t.Fatal("parseEnvelope disagrees with the unchecked accessors")
		}
	})
}
