package trace

import (
	"bytes"
	"testing"
)

// TestSaveDeterministic pins the two properties the checkpoint workload
// digest relies on: Save is a pure function of the workload (same bytes
// twice), and different workloads serialize differently.
func TestSaveDeterministic(t *testing.T) {
	p, _ := ByName("ocean_cp")
	save := func(seed int64) []byte {
		var buf bytes.Buffer
		if err := Generate(p.Scale(0.1), 4, seed).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := save(77), save(77)
	if !bytes.Equal(a, b) {
		t.Fatal("Save of the same workload gave different bytes")
	}
	if bytes.Equal(a, save(78)) {
		t.Fatal("workloads from different seeds saved identically")
	}
}
