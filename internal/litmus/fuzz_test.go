package litmus

import (
	"encoding/json"
	"testing"
)

// FuzzLitmus mutates tiny litmus programs and asserts the machine never
// exposes a durable state the Px86 model forbids, never disagrees with the
// crash-consistency checker, and never stalls. The decoder emits a marker
// after every store so that persist units are single-store — the regime
// where conflict-triggered freezes coincide with unit boundaries and the
// static model is exact for arbitrary cross-core interleavings.

// fuzzPerturbs is a reduced sweep: fuzzing trades sweep breadth for input
// breadth.
func fuzzPerturbs() []Perturb {
	return []Perturb{{}, {Skew: []uint32{211, 0}}, {Jitter: 3}}
}

// decodeFuzz maps raw bytes to a litmus test: two cores split by 0xFF, two
// variables, op = b%4 in {store, load, mfence, rmw}, variable = bit 2.
// Store values are minted sequentially per variable, and every store is
// marker-closed. Returns nil for inputs that decode to nothing runnable.
func decodeFuzz(data []byte) *Test {
	if len(data) == 0 || len(data) > 16 {
		return nil
	}
	t := &Test{Name: "fuzz", Vars: []string{"x", "y"}}
	nextVal := []int{0, 0}
	var cur []Op
	stores := 0
	flush := func() bool {
		if len(t.Cores) == 2 {
			return false
		}
		t.Cores = append(t.Cores, cur)
		cur = nil
		return true
	}
	for _, b := range data {
		if b == 0xFF {
			if !flush() {
				return nil
			}
			continue
		}
		if len(cur) >= 8 {
			return nil
		}
		v := int(b>>2) & 1
		switch b % 4 {
		case 0:
			nextVal[v]++
			cur = append(cur, st(v, nextVal[v]), mk())
			stores++
		case 1:
			cur = append(cur, ld(v))
		case 2:
			cur = append(cur, mf())
		case 3:
			nextVal[v]++
			cur = append(cur, rmw(v, nextVal[v]), mk())
			stores++
		}
	}
	if !flush() || stores == 0 {
		return nil
	}
	return t
}

func FuzzLitmus(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0xFF, 0x04, 0x01})             // sb
	f.Add([]byte{0x00, 0x04, 0xFF, 0x05, 0x01})             // mp
	f.Add([]byte{0x00, 0xFF, 0x00})                         // waw conflict
	f.Add([]byte{0x03, 0x07})                               // rmw chain
	f.Add([]byte{0x00, 0x02, 0x04, 0xFF, 0x05, 0x02, 0x01}) // fenced mp
	f.Fuzz(func(t *testing.T, data []byte) {
		tt := decodeFuzz(data)
		if tt == nil || tt.Validate() != nil {
			t.Skip()
		}
		allowed, err := tt.AllowedOutcomes()
		if err != nil {
			t.Skip() // state-space cap; not a machine property
		}
		tt.Allowed = allowed
		o := Default()
		o.Coverage = false
		o.Perturbs = fuzzPerturbs()
		r := Explore(tt, o)
		if err := r.Err(); err != nil {
			blob, _ := json.Marshal(tt)
			t.Fatalf("%v\nreproduce: %s", err, blob)
		}
	})
}
