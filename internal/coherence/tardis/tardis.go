// Package tardis implements a Tardis-style timestamp coherence backend
// (Yu & Devadas, PACT 2015; Tardis 2.0, PACT 2016) as a peer of the SLC
// sharing-list protocol and the MESI bit-vector directory: per-line write
// and read timestamps, lease-based reads, and logical-time bumping on
// exclusive acquisition, with no invalidation traffic at all.
//
// Tardis replaces invalidation with timestamps; it does not change persist
// order, which still follows coherence order. The machine keeps its
// directory-serialized sharing list as the one structure every persistency
// system consumes for persist ordering, and this package carries only the
// timing-side state on top: whether a private-cache hit must renew an
// expired lease at the home bank (the cost Tardis pays instead of
// invalidation walks), and the logical-time bookkeeping behind it.
package tardis

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
)

// Lease is the static logical lease length granted on shared reads (the
// Tardis paper evaluates leases of 8–64 and uses 10 as its default).
const Lease = 10

// lineMeta is the directory's timestamp view of one line.
type lineMeta struct {
	wts, rts uint64
	// leases[c] is the lease end (an rts value) granted to cache c; a copy
	// is readable without a directory round trip while pts[c] <= leases[c].
	leases []uint64
}

// State is the full timestamp-coherence state: per-cache program
// timestamps and per-line metadata. All mutations happen at directory-
// serialization instants, so the single-threaded event engine makes the
// timestamp order identical to the event order.
type State struct {
	// pts holds one program timestamp per private cache; its length is the
	// cache count, which also sizes each line's lease slots.
	pts   []uint64
	lines map[mem.Line]*lineMeta

	// metaSlab amortizes per-line allocations (leases share one backing
	// array per chunk).
	metaSlab  []lineMeta
	leaseSlab []uint64

	renewals  *stats.Counter
	leaseHits *stats.Counter
	tsJumps   *stats.Counter
}

// New constructs the timestamp state for the given number of private
// caches. The counters register in the given stats set at construction, so
// registration order is deterministic: tardis.renewals (lease-expired
// private hits that paid a directory round trip), tardis.lease_hits
// (private hits served under a live lease), and tardis.ts_jumps (exclusive
// acquisitions that bumped logical time past a lease end).
func New(caches int, set *stats.Set) *State {
	if caches <= 0 {
		panic("tardis: needs a positive cache count")
	}
	return &State{
		pts:       make([]uint64, caches),
		lines:     map[mem.Line]*lineMeta{},
		renewals:  set.Counter("tardis.renewals"),
		leaseHits: set.Counter("tardis.lease_hits"),
		tsJumps:   set.Counter("tardis.ts_jumps"),
	}
}

// Per-line state caps: the line map's presize and how many lines one slab
// chunk holds.
const (
	linesHintCap = 1 << 10
	metaChunk    = 64
)

// Reserve sizes the per-line state for a run that touches at most n distinct
// lines; call it before the first access. The line map is presized for
// min(1024, n) lines and the first slab chunks hold min(64, n) lines. Past
// either bound the state still works: the map grows and the slabs refill.
func (s *State) Reserve(n int) {
	k := min(metaChunk, n)
	s.lines = make(map[mem.Line]*lineMeta, min(linesHintCap, n))
	s.metaSlab = make([]lineMeta, k)
	s.leaseSlab = make([]uint64, k*len(s.pts))
}

// PTS returns cache c's program timestamp.
func (s *State) PTS(c int) uint64 { return s.pts[c] }

// WTS returns the line's current write timestamp (0 if never written).
func (s *State) WTS(l mem.Line) uint64 {
	if m := s.lines[l]; m != nil {
		return m.wts
	}
	return 0
}

// RTS returns the line's current read timestamp (lease frontier).
func (s *State) RTS(l mem.Line) uint64 {
	if m := s.lines[l]; m != nil {
		return m.rts
	}
	return 0
}

func (s *State) meta(l mem.Line) *lineMeta {
	m, ok := s.lines[l]
	if !ok {
		if len(s.metaSlab) == 0 {
			s.metaSlab = make([]lineMeta, metaChunk)
		}
		m = &s.metaSlab[0]
		s.metaSlab = s.metaSlab[1:]
		caches := len(s.pts)
		if len(s.leaseSlab) < caches {
			s.leaseSlab = make([]uint64, metaChunk*caches)
		}
		m.leases = s.leaseSlab[:caches:caches]
		s.leaseSlab = s.leaseSlab[caches:]
		s.lines[l] = m
	}
	return m
}

// Read records a shared access by cache c at the directory: the cache's
// program timestamp catches up to the line's write timestamp and a lease
// is granted (extending the line's rts frontier to pts+lease).
func (s *State) Read(c int, l mem.Line) {
	m := s.meta(l)
	if s.pts[c] < m.wts {
		s.pts[c] = m.wts
	}
	end := s.pts[c] + Lease
	if end > m.rts {
		m.rts = end
	} else {
		end = m.rts
	}
	m.leases[c] = end
}

// NeedsRenewal reports whether cache c's clean valid copy of l is
// logically expired (pts has advanced past the granted lease end) and must
// renew at the home bank before the hit can be served. A live lease counts
// as a lease hit.
func (s *State) NeedsRenewal(c int, l mem.Line) bool {
	m := s.lines[l]
	if m != nil && s.pts[c] <= m.leases[c] {
		s.leaseHits.Inc()
		return false
	}
	return true
}

// Renew records a lease renewal at the directory (a Read that was forced
// by expiry rather than a miss).
func (s *State) Renew(c int, l mem.Line) {
	s.renewals.Inc()
	s.Read(c, l)
}

// Write records an exclusive acquisition by cache c: logical time jumps
// past both the line's lease frontier and its previous write (wts' =
// max(pts, rts+1, wts+1)), which is what makes invalidation traffic
// unnecessary — expired leases simply stop being live. The writer
// implicitly holds a lease on its own copy.
func (s *State) Write(c int, l mem.Line) {
	if s.acquire(c, l) {
		s.tsJumps.Inc()
	}
}

// Coalesce records a write hit on cache c's own dirty copy: the line's
// timestamps advance exactly as for Write, but the copy stays exclusive, so
// the bump is not counted as a ts_jump.
func (s *State) Coalesce(c int, l mem.Line) { s.acquire(c, l) }

// acquire installs cache c's new write timestamp on l and reports whether
// it had to jump past the line's lease frontier.
func (s *State) acquire(c int, l mem.Line) (jumped bool) {
	m := s.meta(l)
	w := s.pts[c]
	if m.rts+1 > w {
		w = m.rts + 1
		jumped = true
	}
	if m.wts+1 > w {
		w = m.wts + 1
	}
	s.pts[c] = w
	m.wts = w
	m.rts = w
	m.leases[c] = w
	return jumped
}

// CheckInvariants verifies the timestamp invariant of every line: wts <=
// rts.
func (s *State) CheckInvariants() error {
	for l, m := range s.lines {
		if m.wts > m.rts {
			return fmt.Errorf("tardis %v: wts %d > rts %d", l, m.wts, m.rts)
		}
	}
	return nil
}
