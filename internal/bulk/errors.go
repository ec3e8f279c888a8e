package bulk

import (
	"errors"
	"fmt"

	"pmoctree/internal/morton"
)

// OutOfRangeError reports an input code that is not a well-formed
// locational code (morton.Code.Valid): its level exceeds morton.MaxLevel
// or a bit is set below its level's resolution. Index is the position in
// the caller's input slice; validation reports the smallest such index so
// the error is deterministic for any worker count.
type OutOfRangeError struct {
	Index int
	Code  morton.Code
}

func (e *OutOfRangeError) Error() string {
	return fmt.Sprintf("bulk: code %#x at input index %d is out of range (level %d, max level %d)",
		uint64(e.Code), e.Index, e.Code.Level(), morton.MaxLevel)
}

// DuplicateCodeError reports the same leaf code appearing twice in the
// input. First and Second are the two input positions (First < Second);
// the reported pair is the one at the smallest sorted position.
type DuplicateCodeError struct {
	Code          morton.Code
	First, Second int
}

func (e *DuplicateCodeError) Error() string {
	return fmt.Sprintf("bulk: duplicate leaf code %v at input indices %d and %d",
		e.Code, e.First, e.Second)
}

// OverlapError reports two input codes whose regions nest: Ancestor
// strictly contains Descendant, so they cannot both be leaves of one
// octree. The indices are input positions. Any overlapping pair in the
// input implies an adjacent one in key order (everything sorted between an
// ancestor and its descendant is itself a descendant of that ancestor), so
// the adjacent-pair scan that produces this error is complete.
type OverlapError struct {
	Ancestor, Descendant           morton.Code
	AncestorIndex, DescendantIndex int
}

func (e *OverlapError) Error() string {
	return fmt.Sprintf("bulk: leaf %v (input index %d) overlaps its descendant %v (input index %d)",
		e.Ancestor, e.AncestorIndex, e.Descendant, e.DescendantIndex)
}

// CoverageError reports that the (deduplicated, non-overlapping) leaf set
// does not tile the whole domain: Cell is the first level-MaxLevel cell in
// Z-order not covered by any input leaf, discovered just before sorted
// leaf position Index (Index == len(input) when the gap trails the last
// leaf).
type CoverageError struct {
	Cell  uint64
	Index int
}

func (e *CoverageError) Error() string {
	return fmt.Sprintf("bulk: leaf set does not cover the domain: gap at cell %v (sorted position %d)",
		morton.Code(e.Cell<<6|morton.MaxLevel), e.Index)
}

// IsInputError reports whether err is (or wraps) one of the typed bulk
// input-validation errors — out-of-range, duplicate, overlap, or coverage
// gap. These mean the caller's leaf set is malformed, as opposed to a
// state or environment failure; command-line tools key a distinct exit
// code off this.
func IsInputError(err error) bool {
	var (
		oor *OutOfRangeError
		dup *DuplicateCodeError
		ovl *OverlapError
		cov *CoverageError
	)
	return errors.As(err, &oor) || errors.As(err, &dup) ||
		errors.As(err, &ovl) || errors.As(err, &cov)
}
