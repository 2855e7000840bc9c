package mem

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		addr Addr
		line Line
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 1},
		{127, 1},
		{128, 2},
		{0xffffffc0, 0x3ffffff},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.line {
			t.Errorf("LineOf(%#x) = %v, want %v", c.addr, got, c.line)
		}
	}
}

func TestLineBaseRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		l := LineOf(addr)
		base := l.Base()
		return LineOf(base) == l && base <= addr && addr-base < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVersionInitial(t *testing.T) {
	var v Version
	if !v.IsInitial() {
		t.Fatal("zero Version must be initial")
	}
	if v.String() != "v0" {
		t.Fatalf("String() = %q", v.String())
	}
	w := Version{Core: 3, Seq: 17}
	if w.IsInitial() {
		t.Fatal("non-zero seq must not be initial")
	}
	if w.String() != "c3.s17" {
		t.Fatalf("String() = %q", w.String())
	}
}

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpLoad:    "load",
		OpStore:   "store",
		OpSync:    "sync",
		OpCompute: "compute",
		OpKind(9): "OpKind(9)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestLineString(t *testing.T) {
	if Line(0x10).String() != "L0x10" {
		t.Fatalf("Line string: %q", Line(0x10).String())
	}
}
