// Package coherence implements the MESI snoopy protocol substrate of the
// private-L2 CMP described in the paper: coherence states (including the
// TD transient state introduced for the turn-off primitive of Figure 2),
// the shared snoopy bus, bus transactions, and the write-through L1
// controller with its write buffer and MSHR.
//
// The leakage-aware L2 controller itself — the paper's contribution — lives
// in internal/core and plugs into this package through the Snooper and
// LowerLevel interfaces.
package coherence

import "fmt"

// State is a MESI coherence state extended with the TD transient state of
// the paper's Figure 2.
//
// Figure 2 also has TC, a clean line waiting for the upper level to
// acknowledge an invalidation before it is turned off.  It is not modelled:
// the L1 invalidation completes at once (L1Controller.InvalidateBlock), so
// a clean line is gated in the same step and no line would ever be in TC.
type State uint8

const (
	// Invalid: the line holds no block (and, under any gating technique,
	// an Invalid line is powered off).
	Invalid State = iota
	// Shared: the line is clean and other caches may hold copies.
	Shared
	// Exclusive: the line is clean and no other cache holds a copy.
	Exclusive
	// Modified: the line is dirty and no other cache holds a copy.
	Modified
	// TransientDirty (TD) is a dirty line whose L1 copy is invalidated,
	// waiting for its write-back before it can be turned off.
	TransientDirty
)

// String returns the conventional one/two-letter name of the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case TransientDirty:
		return "TD"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Stable reports whether the state is one of the stationary MESI states from
// which the paper allows a turn-off transition to start (M, E, S) or Invalid.
func (s State) Stable() bool {
	switch s {
	case Invalid, Shared, Exclusive, Modified:
		return true
	default:
		return false
	}
}

// Dirty reports whether the state implies data newer than memory.
func (s State) Dirty() bool {
	return s == Modified || s == TransientDirty
}

// Valid reports whether the state holds usable data (anything but Invalid).
func (s State) Valid() bool { return s != Invalid }
