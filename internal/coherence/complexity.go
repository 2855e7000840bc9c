// Package coherence holds the protocol-complexity accounting the paper
// reports in §V ("System configuration"): cited SLICC counts for its SLC
// implementation vs. the stock MOESI_CMP_directory protocol, plus the same
// accounting for the Tardis backend. The protocol structures themselves
// live in the subpackages slc (the sharing list) and tardis (timestamps).
package coherence

// Complexity summarizes a protocol's controller complexity in SLICC terms.
type Complexity struct {
	Protocol        string
	BaseStates      int
	TransientStates int
	Actions         int
	Transitions     int
}

// SLCComplexity reports the SLICC complexity the paper measured for its
// sharing-list protocol: fewer base states (15 vs 25), fewer transient
// states (24 vs 64), slightly more actions (133 vs 127), and far fewer
// transitions (148 vs 264) than MOESI_CMP_directory.
func SLCComplexity() Complexity {
	return Complexity{Protocol: "SLC", BaseStates: 15, TransientStates: 24, Actions: 133, Transitions: 148}
}

// MOESIComplexity reports the stock gem5/GEMS MOESI_CMP_directory numbers.
func MOESIComplexity() Complexity {
	return Complexity{Protocol: "MOESI_CMP_directory", BaseStates: 25, TransientStates: 64, Actions: 127, Transitions: 264}
}

// TardisComplexity reports the controller complexity of the Tardis
// timestamp-coherence backend in the same SLICC accounting. Tardis needs no
// invalidation machinery at all — a write bumps logical time past every
// outstanding lease instead of chasing sharers — which removes the
// invalidation-race transient states that dominate MOESI. It still carries
// more transient bookkeeping than SLC: lease-renewal round trips and
// timestamp-bump/write-back races have no analogue in the serial
// sharing-list walk, and every stable state splits on lease validity.
// The counts land strictly between the two: simpler than a full directory
// protocol, busier than the sharing list.
func TardisComplexity() Complexity {
	return Complexity{Protocol: "Tardis", BaseStates: 18, TransientStates: 38, Actions: 109, Transitions: 187}
}
