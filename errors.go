package notable

import (
	"errors"
	"fmt"
	"strings"
)

// ErrEmptyQuery is returned by Do, DoBatch, and DoStream when a request
// carries no query nodes. Batch entry points wrap it with the offending
// index; match with errors.Is.
var ErrEmptyQuery = errors.New("notable: empty query")

// ErrBadQuery is returned by Do, DoBatch, and DoStream when a Query
// carries an override that no engine configuration could make valid — a
// negative TopK, ContextSize, or TestSamples, or an Alpha outside (0, 1).
// The returned error wraps ErrBadQuery and names the offending field;
// match with errors.Is. (Zero values are not errors: they mean "inherit
// the engine's option".)
var ErrBadQuery = errors.New("notable: bad query")

// ErrBadTriple is returned by ApplyTriples when a mutation batch carries
// a malformed triple — an empty subject, predicate, or object. The batch
// is rejected whole: the graph, its epoch, and every cache stay exactly
// as they were. The returned error wraps ErrBadTriple and names the
// offending triple; match with errors.Is.
var ErrBadTriple = errors.New("notable: bad triple")

// ErrDurability is returned by ApplyTriples on a durable engine
// (NewDurableEngine) when the write-ahead log cannot make the batch
// durable — a failed append, fsync, or a closed log. The batch was NOT
// acknowledged: it may already be visible in memory, but it will not
// survive a restart, and the engine refuses further ingest (reads are
// unaffected) until restarted over the intact log. Match with errors.Is.
var ErrDurability = errors.New("notable: durability failure")

// DegradedError reports a request that opted into degraded mode
// (Query.Degrade) and was cut short by its deadline or cancellation during
// the comparison stage. The Do call that returned it also returned a
// usable partial Result: the selected context plus the labels tested
// before the cut, a prefix-consistent subset of the full report (each
// record bitwise identical to its slot in an uncut run). Unwrap yields the
// ctx error, so errors.Is(err, context.DeadlineExceeded) still matches.
type DegradedError struct {
	// Cause is the ctx error that cut the request short.
	Cause error
	// Tested and Total count labels tested before the cut vs. the full
	// report.
	Tested, Total int
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("notable: degraded result (%d/%d labels tested): %v", e.Tested, e.Total, e.Cause)
}

// Unwrap exposes the underlying ctx error to errors.Is.
func (e *DegradedError) Unwrap() error { return e.Cause }

// UnresolvedError reports entity names that Resolve could not map to
// graph nodes, exactly or fuzzily. Callers recover the names via
// errors.As and typically feed them to Engine.Suggest for
// did-you-mean output.
type UnresolvedError struct {
	// Missing holds the unresolved names, in input order.
	Missing []string
}

// Error implements error.
func (e *UnresolvedError) Error() string {
	return "notable: unresolved entities: " + strings.Join(e.Missing, ", ")
}
