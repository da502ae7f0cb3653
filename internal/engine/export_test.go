package engine

import "piql/internal/value"

// What the package's own tests share with its external ones (package
// engine_test), which import the workloads built on this package.

// NewRoundTripFixture is newRoundTripFixture.
var NewRoundTripFixture = newRoundTripFixture

// MeasuredShapes returns the statements of measuredShapes, each with its
// argument.
func MeasuredShapes() (sqls []string, args []value.Value) {
	for _, tc := range measuredShapes {
		sqls, args = append(sqls, tc.sql), append(args, tc.arg)
	}
	return sqls, args
}

// Engine returns the engine s is a session of.
func (s *Session) Engine() *Engine { return s.eng }
