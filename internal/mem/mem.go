// Package mem defines the address and cacheline vocabulary shared by every
// component of the simulated machine: byte addresses, line identifiers,
// version-tagged line values used by the crash-consistency checker, and the
// memory operations that cores issue.
package mem

import "fmt"

// LineSize is the cacheline size in bytes (Table I: 64 B lines).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line is a cacheline-granularity address (byte address >> LineShift).
type Line uint64

// LineOf returns the cacheline containing the byte address.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Base returns the first byte address of the line.
func (l Line) Base() Addr { return Addr(l) << LineShift }

func (l Line) String() string { return fmt.Sprintf("L%#x", uint64(l)) }

// Version identifies one written value of one line. Instead of simulating
// data bytes, every store stamps its line with a fresh Version; the crash
// checker reasons about which version of each line is durable. The zero
// Version means "initial (pre-run) contents".
type Version struct {
	// Core is the writing core.
	Core int
	// Seq is the core-local store sequence number (1-based; 0 = initial).
	Seq uint64
}

// IsInitial reports whether v is the pre-run contents of a line.
func (v Version) IsInitial() bool { return v.Seq == 0 }

func (v Version) String() string {
	if v.IsInitial() {
		return "v0"
	}
	return fmt.Sprintf("c%d.s%d", v.Core, v.Seq)
}

// OpKind is the kind of a memory operation in a workload trace.
type OpKind uint8

const (
	// OpLoad is a memory read.
	OpLoad OpKind = iota
	// OpStore is a memory write.
	OpStore
	// OpSync is a synchronization point (lock acquire/release, barrier).
	// Relaxed persistency systems (HW-RP) use Sync to delimit
	// synchronization-free regions; TSOPER needs no such hints.
	OpSync
	// OpCompute stands for n non-memory instructions (op.Arg cycles of work).
	OpCompute
	// OpMarker is a marker store (§II-D): software tells TSOPER to close
	// the current atomic group, so AG boundaries align with software-
	// defined recovery epochs. Systems without atomic groups treat it as
	// a no-op.
	OpMarker
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpSync:
		return "sync"
	case OpCompute:
		return "compute"
	case OpMarker:
		return "marker"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one operation of a per-core workload trace.
type Op struct {
	Kind OpKind
	// Addr is the byte address for loads and stores.
	Addr Addr
	// Arg carries the compute length for OpCompute and a sync id for OpSync.
	Arg uint32
}
