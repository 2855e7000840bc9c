package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestGeometrySets(t *testing.T) {
	cases := []struct {
		g    Geometry
		want int
	}{
		{Geometry{SizeBytes: 32 * 1024, Ways: 8}, 64},    // 32KB L1
		{Geometry{SizeBytes: 512 * 1024, Ways: 16}, 512}, // 512KB L2
		{Geometry{SizeBytes: 64, Ways: 1}, 1},
		{Geometry{SizeBytes: 64, Ways: 4}, 1}, // smaller than one way set
	}
	for _, c := range cases {
		if got := c.g.Sets(); got != c.want {
			t.Errorf("%+v: sets=%d want %d", c.g, got, c.want)
		}
	}
}

func TestInsertLookup(t *testing.T) {
	c := New[int](Geometry{SizeBytes: 64 * 16, Ways: 4})
	e, v := c.Insert(mem.Line(1), 42)
	if e == nil || v != nil {
		t.Fatal("insert into empty cache should not evict")
	}
	got := c.Lookup(mem.Line(1))
	if got == nil || got.Data != 42 {
		t.Fatalf("lookup: %+v", got)
	}
	if c.Lookup(mem.Line(99)) != nil {
		t.Fatal("miss should return nil")
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways.
	c := New[int](Geometry{SizeBytes: 128, Ways: 2})
	c.Insert(mem.Line(0), 0)
	c.Insert(mem.Line(1), 1)
	c.Lookup(mem.Line(0)) // 0 is now MRU
	_, victim := c.Insert(mem.Line(2), 2)
	if victim == nil || victim.Line != mem.Line(1) {
		t.Fatalf("victim=%+v, want line 1", victim)
	}
	if c.Peek(mem.Line(1)) != nil {
		t.Fatal("victim still resident")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c := New[int](Geometry{SizeBytes: 128, Ways: 2})
	c.Insert(mem.Line(0), 0)
	c.Insert(mem.Line(0), 1)
}

func TestRemove(t *testing.T) {
	c := New[int](Geometry{SizeBytes: 128, Ways: 2})
	c.Insert(mem.Line(0), 7)
	e := c.Remove(mem.Line(0))
	if e == nil || e.Data != 7 {
		t.Fatalf("removed=%+v", e)
	}
	if c.Remove(mem.Line(0)) != nil {
		t.Fatal("second remove should return nil")
	}
	if c.Peek(mem.Line(0)) != nil || c.SetOccupancy(mem.Line(0)) != 0 {
		t.Fatalf("removed line still resident (set occupancy %d)", c.SetOccupancy(mem.Line(0)))
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := New[int](Geometry{SizeBytes: 128, Ways: 2})
	c.Insert(mem.Line(0), 0)
	c.Insert(mem.Line(1), 1)
	c.Peek(mem.Line(0)) // must NOT refresh line 0
	_, victim := c.Insert(mem.Line(2), 2)
	if victim == nil || victim.Line != mem.Line(0) {
		t.Fatalf("victim=%+v, want line 0 (peek must not touch)", victim)
	}
}

// Property: under random Insert, Lookup and Remove the cache matches a
// reference model that keeps each set's lines in LRU order. Occupancy never
// exceeds the ways; every resident line is found with its data, also after
// a Remove swaps the set's last way into the freed slot; Insert evicts the
// set's least recently inserted or looked-up line; and a removed or evicted
// entry's data stays readable until the next Insert. Reserve sizes the
// slabs for fewer lines than the run touches (0: no Reserve).
func TestPropertyOccupancyBound(t *testing.T) {
	const ways, lines, opsPerRun = 4, 64, 300
	geom := Geometry{SizeBytes: 64 * 32, Ways: ways} // 8 sets
	type item struct {
		line mem.Line
		data int
	}
	indexOf := func(set []item, l mem.Line) int {
		for i, it := range set {
			if it.line == l {
				return i
			}
		}
		return -1
	}
	var evictions, removals int
	for _, reserve := range []int{0, 1, 3} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := New[int](geom)
			if reserve > 0 {
				c.Reserve(reserve)
			}
			model := make([][]item, geom.Sets()) // per set, least recently used first
			for n := 0; n < opsPerRun; n++ {
				line := mem.Line(rng.Intn(lines))
				si := int(line) % len(model)
				set := model[si]
				i := indexOf(set, line)
				var gone *Entry[int] // a removed or evicted entry, checked last
				var goneItem item
				switch op := rng.Intn(3); {
				case op == 0 && i < 0: // insert an absent line
					e, victim := c.Insert(line, n)
					if e == nil || e.Line != line || e.Data != n {
						return false
					}
					if len(set) == ways {
						if victim == nil || victim.Line != set[0].line {
							return false
						}
						gone, goneItem = victim, set[0]
						set = set[1:]
						evictions++
					} else if victim != nil {
						return false
					}
					set = append(set, item{line, n})
				case op == 2: // remove
					e := c.Remove(line)
					if i < 0 {
						if e != nil {
							return false
						}
						break
					}
					if e == nil {
						return false
					}
					gone, goneItem = e, set[i]
					set = append(set[:i:i], set[i+1:]...)
					if len(set) > 0 {
						removals++
					}
				default: // look up (also an insert of a resident line)
					e := c.Lookup(line)
					if i < 0 {
						if e != nil {
							return false
						}
						break
					}
					if e == nil || e.Data != set[i].data {
						return false
					}
					set = append(append(set[:i:i], set[i+1:]...), set[i])
				}
				model[si] = set
				if c.SetOccupancy(line) != len(set) || len(set) > ways {
					return false
				}
				for _, it := range set {
					if e := c.Peek(it.line); e == nil || e.Line != it.line || e.Data != it.data {
						return false
					}
				}
				if indexOf(set, line) < 0 && c.Peek(line) != nil {
					return false
				}
				if gone != nil && (gone.Line != goneItem.line || gone.Data != goneItem.data) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("reserve %d: %v", reserve, err)
		}
	}
	if evictions == 0 || removals == 0 {
		t.Fatalf("runs made %d evictions and %d removals from occupied sets; the property needs both", evictions, removals)
	}
}

func TestEvictBuffer(t *testing.T) {
	b := NewEvictBuffer[string](2)
	if !b.Put(mem.Line(1), "a") || !b.Put(mem.Line(2), "b") {
		t.Fatal("puts within capacity must succeed")
	}
	if b.Put(mem.Line(3), "c") {
		t.Fatal("put beyond capacity must fail")
	}
	if b.Stalls != 1 || b.MaxOccupancy != 2 {
		t.Fatalf("stalls=%d max=%d", b.Stalls, b.MaxOccupancy)
	}
	if v, ok := b.Get(mem.Line(1)); !ok || v != "a" {
		t.Fatalf("get: %v %v", v, ok)
	}
	b.Release(mem.Line(1))
	if b.Len() != 1 || b.Cap() != 2 {
		t.Fatalf("len=%d cap=%d", b.Len(), b.Cap())
	}
	if !b.Put(mem.Line(3), "c") {
		t.Fatal("put after release must succeed")
	}
}
