package kvstore

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"piql/internal/sim"
)

// clock is a cluster's one time source: its sim.Env's virtual time when
// it has one, otherwise monotonic wall time since New. The HLC's
// physical component, the lease countdown (markDown, reclaimableLocked)
// and the inline tombstone sweep all read it, so a simulated run is a
// function of its seed and never of the host's clock.
type clock struct {
	env  *sim.Env
	born time.Time
}

// now returns the time elapsed on the cluster's clock.
func (k *clock) now() time.Duration {
	if k.env != nil {
		return k.env.Now()
	}
	return time.Since(k.born)
}

// Hybrid logical clock + version envelope.
//
// Every record a node stores carries a version: a hybrid timestamp drawn
// from the cluster-wide HLC plus the writing client's id as a tiebreaker.
// Replicas apply a write only when its version is newer than what they
// hold (node.applyIfNewer), and deletes store versioned tombstones
// instead of erasing, so all replicas of a key — synchronous writes,
// catch-up replays and rebalance copies alike — converge to the same
// winner regardless of the order writes arrive in. This is what turns the
// store's Put/Delete from "last writer wins per replica" (which could
// diverge replicas permanently) into
// convergent last-writer-wins.

// hlcLogicalBits is how many low bits of a hybrid timestamp hold the
// logical counter; the rest hold milliseconds of the cluster's clock. 16
// bits allow 65k distinct stamps per millisecond before the HLC runs
// ahead of the clock (it stays monotonic either way).
const hlcLogicalBits = 16

// HLC is a hybrid logical clock: timestamps are the maximum of the
// physical time (in ms, shifted left by hlcLogicalBits) and
// last-issued+1, so they are strictly increasing across the cluster and
// still loosely track the cluster's clock — which is what lets tombstone
// GC use a grace period on that clock. Safe for concurrent use.
type HLC struct {
	last atomic.Int64
}

// Next issues a new hybrid timestamp at physical time now, strictly
// greater than every timestamp previously issued by this clock.
func (h *HLC) Next(now time.Duration) int64 {
	for {
		last := h.last.Load()
		next := hlcTime(now)
		if next <= last {
			next = last + 1
		}
		if h.last.CompareAndSwap(last, next) {
			return next
		}
	}
}

// Observe advances the clock to at least ts — the receive rule of a
// hybrid logical clock. Every node observes the timestamp of every
// envelope it applies (applyIfNewer), so after a node has seen a write
// it can never issue a stamp that loses to it: a replica promoted to
// primary after a crash stamps new writes strictly newer than
// everything it stores.
func (h *HLC) Observe(ts int64) {
	for {
		last := h.last.Load()
		if ts <= last || h.last.CompareAndSwap(last, ts) {
			return
		}
	}
}

// hlcTime converts a reading of the cluster's clock to the
// hybrid-timestamp scale.
func hlcTime(d time.Duration) int64 { return d.Milliseconds() << hlcLogicalBits }

// Version orders all writes to one key: hybrid timestamp first, writing
// client as the tiebreaker. The zero Version is older than any stamped
// write.
type Version struct {
	TS     int64 // hybrid timestamp from the cluster HLC
	Client int64 // writing client's id (tiebreaker)
}

// After reports whether v is strictly newer than o.
func (v Version) After(o Version) bool {
	if v.TS != o.TS {
		return v.TS > o.TS
	}
	return v.Client > o.Client
}

// envHeader is the size of the version envelope prefix every stored
// value carries: 8 bytes timestamp, 8 bytes client id, 1 flag byte.
const envHeader = 17

const envTombstone = 1 // flag bit: this envelope is a delete marker

// appendEnvelope appends the envelope for (ver, tomb, val) to dst.
func appendEnvelope(dst []byte, ver Version, tomb bool, val []byte) []byte {
	var hdr [envHeader]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(ver.TS))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(ver.Client))
	if tomb {
		hdr[16] = envTombstone
	}
	return append(append(dst, hdr[:]...), val...)
}

// makeEnvelope builds one envelope in a fresh slice.
func makeEnvelope(ver Version, tomb bool, val []byte) []byte {
	return appendEnvelope(make([]byte, 0, envHeader+len(val)), ver, tomb, val)
}

// envVersion extracts an envelope's version.
func envVersion(env []byte) Version {
	return Version{
		TS:     int64(binary.BigEndian.Uint64(env[0:8])),
		Client: int64(binary.BigEndian.Uint64(env[8:16])),
	}
}

// envIsTombstone reports whether the envelope is a delete marker.
func envIsTombstone(env []byte) bool { return env[16]&envTombstone != 0 }

// envValue returns the envelope's payload (empty for tombstones). The
// returned slice aliases env.
func envValue(env []byte) []byte { return env[envHeader:] }

// The envelope corruption errors are deliberately fatal: they do not
// unwrap to ErrTransient, because a corrupt 17-byte header is still
// corrupt on a retry.
var (
	errEnvelopeShort = errors.New("kvstore: envelope shorter than its 17-byte header")
	errEnvelopeFlags = errors.New("kvstore: envelope header has unknown flag bits")
)

// parseEnvelope validates env and splits it into version, tombstone
// flag, and payload (the payload aliases env). Unlike the envVersion/
// envIsTombstone/envValue accessors — which assume a well-formed
// envelope and index straight into it — it never panics: truncated
// input and unknown flag bits come back as errors. applyIfNewer runs
// every incoming envelope through it, so a corrupt envelope is a
// deterministic reject instead of a crash mid-write.
func parseEnvelope(env []byte) (ver Version, tomb bool, val []byte, err error) {
	if len(env) < envHeader {
		return Version{}, false, nil, errEnvelopeShort
	}
	if env[16]&^envTombstone != 0 {
		return Version{}, false, nil, errEnvelopeFlags
	}
	return envVersion(env), envIsTombstone(env), envValue(env), nil
}
