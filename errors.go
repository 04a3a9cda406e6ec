package quicknn

import (
	"errors"
	"fmt"
)

// The package's error taxonomy. Every error returned by the
// error-returning API surface (BuildIndex, Index.Query, Index.QueryInto,
// Index.QueryBatch, Pipeline.ProcessCtx, LoadIndex) either is one of these
// sentinels, wraps one of them (match with errors.Is), or is a context
// error (context.Canceled / context.DeadlineExceeded) propagated
// unchanged.
var (
	// ErrEmptyInput reports a construction or ingestion call with no
	// points: BuildIndex with an empty reference cloud, or
	// Pipeline.ProcessCtx with an empty frame.
	ErrEmptyInput = errors.New("quicknn: empty input: no points")

	// ErrInvalidOptions reports construction or query options that are
	// out of domain (negative bucket size, k <= 0, negative radius, ...).
	// Returned errors wrap it with a description of the offending field.
	ErrInvalidOptions = errors.New("quicknn: invalid options")

	// ErrCorruptIndex reports that a serialized index failed validation
	// on load (LoadIndex). Returned errors wrap it with the location and
	// nature of the corruption.
	ErrCorruptIndex = errors.New("quicknn: corrupt index")

	// ErrInvalidPoint reports a point with a NaN or infinite coordinate:
	// in BuildIndex's reference cloud, a query, or a Pipeline.ProcessCtx
	// frame (LoadIndex reports one in a dump as ErrCorruptIndex wrapping
	// it). Such a point has no place in the tree and no meaningful
	// distance to anything. Returned errors wrap it with the offending
	// point's index and coordinates.
	ErrInvalidPoint = errors.New("quicknn: invalid point")
)

// CheckPoints returns an error wrapping ErrInvalidPoint that names the
// first point with a NaN or infinite coordinate, or nil when every point
// is finite. BuildIndex, the queries and Pipeline.ProcessCtx run it on
// their input; Index.Update and Index.UpdateStatic do not, so callers
// feeding them untrusted frames check first.
func CheckPoints(points []Point) error {
	for i, p := range points {
		if !p.Finite() {
			return fmt.Errorf("%w: point %d is (%g, %g, %g)", ErrInvalidPoint, i, p.X, p.Y, p.Z)
		}
	}
	return nil
}
