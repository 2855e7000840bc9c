package cache

import (
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
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
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
	if c.Len() != 0 {
		t.Fatalf("len=%d", c.Len())
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

func TestForEach(t *testing.T) {
	c := New[int](Geometry{SizeBytes: 64 * 8, Ways: 8})
	for i := 0; i < 5; i++ {
		c.Insert(mem.Line(i), i)
	}
	sum := 0
	c.ForEach(func(e *Entry[int]) { sum += e.Data })
	if sum != 10 {
		t.Fatalf("sum=%d", sum)
	}
}

// Property: occupancy never exceeds ways per set, and resident lines are
// always found.
func TestPropertyOccupancyBound(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New[struct{}](Geometry{SizeBytes: 64 * 32, Ways: 4}) // 8 sets
		for _, l := range lines {
			line := mem.Line(l % 256)
			if c.Peek(line) == nil {
				c.Insert(line, struct{}{})
			}
			if c.SetOccupancy(line) > c.Ways() {
				return false
			}
			if c.Peek(line) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
