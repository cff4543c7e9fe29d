package cat

import (
	"testing"
	"testing/quick"
)

func TestFullMask(t *testing.T) {
	cases := []struct {
		ways int
		want WayMask
	}{
		{0, 0},
		{1, 0x1},
		{2, 0x3},
		{12, 0xfff},
		{20, 0xfffff},
		{32, 0xffffffff},
		{40, 0xffffffff},
	}
	for _, c := range cases {
		if got := FullMask(c.ways); got != c.want {
			t.Errorf("FullMask(%d) = %v, want %v", c.ways, got, c.want)
		}
	}
}

func TestPortionMask(t *testing.T) {
	// The paper's scheme on a 20-way LLC: 10% -> 0x3 (2 ways),
	// 60% -> 0xfff (12 ways), 100% -> 0xfffff.
	cases := []struct {
		frac float64
		want WayMask
	}{
		{0.10, 0x3},
		{0.60, 0xfff},
		{1.00, 0xfffff},
		{0.0, 0x1},     // clamped to at least one way
		{-1.0, 0x1},    // clamped
		{2.0, 0xfffff}, // clamped to full
	}
	for _, c := range cases {
		if got := PortionMask(20, c.frac); got != c.want {
			t.Errorf("PortionMask(20, %v) = %v, want %v", c.frac, got, c.want)
		}
	}
}

func TestWayMaskContiguous(t *testing.T) {
	for _, m := range []WayMask{0x1, 0x3, 0x6, 0xff0, 0xfffff} {
		if !m.Contiguous() {
			t.Errorf("%v should be contiguous", m)
		}
	}
	for _, m := range []WayMask{0, 0x5, 0x9, 0xf0f} {
		if m.Contiguous() {
			t.Errorf("%v should not be contiguous", m)
		}
	}
}

func TestWayMaskString(t *testing.T) {
	if got := WayMask(0x3).String(); got != "0x3" {
		t.Errorf("String = %q, want 0x3", got)
	}
	if got := WayMask(0xfffff).String(); got != "0xfffff" {
		t.Errorf("String = %q, want 0xfffff", got)
	}
}

func TestNewRegistersValidation(t *testing.T) {
	for _, c := range []struct{ cores, ways, clos int }{
		{0, 20, 16}, {-1, 20, 16}, {22, 0, 16}, {22, 33, 16}, {22, 20, 0},
	} {
		if _, err := NewRegisters(c.cores, c.ways, c.clos); err == nil {
			t.Errorf("NewRegisters(%d,%d,%d) should fail", c.cores, c.ways, c.clos)
		}
	}
}

func TestRegistersResetState(t *testing.T) {
	r, err := NewRegisters(22, 20, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCLOS() != 16 || r.NumWays() != 20 {
		t.Fatalf("geometry mismatch: %d CLOS, %d ways", r.NumCLOS(), r.NumWays())
	}
	for clos := 0; clos < 16; clos++ {
		if r.Mask(clos) != 0xfffff {
			t.Errorf("CLOS %d not initialised to full mask: %v", clos, r.Mask(clos))
		}
	}
	for core := 0; core < 22; core++ {
		if r.CLOSOf(core) != 0 {
			t.Errorf("core %d not in CLOS 0", core)
		}
		if r.MaskOf(core) != 0xfffff {
			t.Errorf("core %d effective mask %v, want full", core, r.MaskOf(core))
		}
	}
}

func TestSetMaskRejectsInvalid(t *testing.T) {
	r, _ := NewRegisters(4, 20, 4)
	cases := []struct {
		clos int
		mask WayMask
	}{
		{-1, 0x3},
		{4, 0x3},
		{1, 0},        // empty
		{1, 0x5},      // not contiguous
		{1, 0x1fffff}, // beyond 20 ways
	}
	for _, c := range cases {
		if err := r.SetMask(c.clos, c.mask); err == nil {
			t.Errorf("SetMask(%d, %v) should fail", c.clos, c.mask)
		}
	}
}

func TestAssociateAndEffectiveMask(t *testing.T) {
	r, _ := NewRegisters(4, 20, 4)
	if err := r.SetMask(1, 0x3); err != nil {
		t.Fatal(err)
	}
	if err := r.Associate(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := r.MaskOf(2); got != 0x3 {
		t.Errorf("core 2 mask = %v, want 0x3", got)
	}
	if got := r.MaskOf(0); got != 0xfffff {
		t.Errorf("core 0 mask = %v, want full", got)
	}
	if err := r.Associate(5, 1); err == nil {
		t.Error("Associate out-of-range core should fail")
	}
	if err := r.Associate(1, 9); err == nil {
		t.Error("Associate out-of-range CLOS should fail")
	}
}

func TestWritesCounter(t *testing.T) {
	r, _ := NewRegisters(4, 20, 4)
	before := r.Writes()
	_ = r.SetMask(1, 0x3)
	_ = r.Associate(0, 1)
	if got := r.Writes() - before; got != 2 {
		t.Errorf("Writes delta = %d, want 2", got)
	}
}

func TestPortionMaskProperties(t *testing.T) {
	// Every portion mask is non-empty, contiguous, and within the way
	// count; more fraction never means fewer ways.
	f := func(ways8 uint8, fracRaw uint16) bool {
		ways := int(ways8%32) + 1
		frac := float64(fracRaw) / 65535
		m := PortionMask(ways, frac)
		if m == 0 || !m.Contiguous() || m&^FullMask(ways) != 0 {
			return false
		}
		m2 := PortionMask(ways, frac/2)
		return m2.Ways() <= m.Ways()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
