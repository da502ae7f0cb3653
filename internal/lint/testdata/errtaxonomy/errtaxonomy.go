// Test fixture for the errtaxonomy analyzer: this package declares the
// ErrTransient sentinel, so the producer rules apply — every error
// type must unwrap to it (or be allowlisted fatal), untyped
// constructions are rejected — and the consumer rules catch ==,
// string matching, and type assertions on errors, wherever the error
// came from.
package errtaxfix

import (
	"errors"
	"fmt"
	"strings"
)

// ErrTransient is the retryability sentinel, mirroring kvstore's.
var ErrTransient = errors.New("errtaxfix: transient")

var errCorrupt = errors.New("errtaxfix: corrupt") // want `package-level error errCorrupt is opaque`

// ErrNodeDown unwraps to the sentinel: conformant.
type ErrNodeDown struct{ Node int }

func (e *ErrNodeDown) Error() string { return fmt.Sprintf("node %d down", e.Node) }
func (e *ErrNodeDown) Unwrap() error { return ErrTransient }

// ErrStuck implements error with no Unwrap chain: invisible to
// errors.Is(err, ErrTransient), so the taxonomy rejects the type.
type ErrStuck struct{} // want `error type ErrStuck does not unwrap`

func (e *ErrStuck) Error() string { return "stuck" }

// flakyOp may return a transient *ErrNodeDown.
func flakyOp(n int) error {
	if n > 0 {
		return &ErrNodeDown{Node: n}
	}
	return nil
}

func makeUntyped() error {
	return errors.New("op failed") // want `untyped error`
}

// fatalAudit is on the fatal allowlist (ErrTaxonomyFatalAllow):
// deliberately non-retryable, so the bare fmt.Errorf is accepted.
func fatalAudit() error {
	return fmt.Errorf("audit mismatch: %d replicas disagree", 7)
}

// wrapped preserves the chain with %w: conformant.
func wrapped(n int) error {
	if err := flakyOp(n); err != nil {
		return fmt.Errorf("wrapped: %w", err)
	}
	return nil
}

func badCompare(n int) bool {
	err := flakyOp(n)
	return err == ErrTransient // want `compared with ==`
}

// badCompareFuncValue: the error comes through a function value, which
// no call summary covers; the comparison is wrong all the same.
func badCompareFuncValue(op func() error) bool {
	return op() == ErrTransient // want `compared with ==`
}

func badStringMatch(n int) bool {
	err := flakyOp(n)
	if err == nil {
		return false
	}
	return strings.Contains(err.Error(), "down") // want `matching on err.Error`
}

func badAssert(err error) bool {
	_, ok := err.(*ErrStuck) // want `use errors.As`
	return ok
}

// goodClassify is the sanctioned pattern.
func goodClassify(n int) bool {
	err := flakyOp(n)
	return errors.Is(err, ErrTransient)
}

// nilChecksFine: comparisons against nil are not identity bugs.
func nilChecksFine(n int) bool {
	return flakyOp(n) != nil
}
