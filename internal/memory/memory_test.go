package memory

import (
	"testing"
	"testing/quick"
)

func TestAllocPageAligned(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 100)
	b := s.Alloc("b", PageSize+1)
	c := s.Alloc("c", 0)
	for _, r := range []Region{a, b, c} {
		if r.Base%PageSize != 0 {
			t.Errorf("region %q base %d not page aligned", r.Name, r.Base)
		}
		if r.Base == 0 {
			t.Errorf("region %q has null base", r.Name)
		}
	}
	if b.Base < a.Base+PageSize {
		t.Error("regions overlap")
	}
	if c.Size != PageSize {
		t.Errorf("zero-size alloc got size %d, want one page", c.Size)
	}
	if got := s.Allocated(); got != 4*PageSize {
		t.Errorf("Allocated = %d, want the 4 pages handed out", got)
	}
}

func TestRegionAddrAndContains(t *testing.T) {
	s := NewSpace()
	r := s.Alloc("col", 1000)
	if got := r.Addr(0); got != r.Base {
		t.Errorf("Addr(0) = %d, want base %d", got, r.Base)
	}
	if got := r.Addr(999); got != r.Base+999 {
		t.Errorf("Addr(999) = %d", got)
	}
	if !r.Contains(r.Base) || !r.Contains(r.Base+999) {
		t.Error("Contains should accept in-range addresses")
	}
	if r.Contains(r.Base + 1000) {
		t.Error("Contains should reject one-past-end")
	}
	defer func() {
		if recover() == nil {
			t.Error("Addr past end should panic")
		}
	}()
	_ = r.Addr(1000)
}

func TestRegionLines(t *testing.T) {
	s := NewSpace()
	if got := s.Alloc("x", 64).Lines(); got != 1 {
		t.Errorf("64 B = %d lines, want 1", got)
	}
	if got := s.Alloc("y", 65).Lines(); got != 2 {
		t.Errorf("65 B = %d lines, want 2", got)
	}
	if got := s.Alloc("z", 4096).Lines(); got != 64 {
		t.Errorf("4096 B = %d lines, want 64", got)
	}
}

func TestAddrLine(t *testing.T) {
	if Addr(0).Line() != 0 || Addr(63).Line() != 0 || Addr(64).Line() != 1 {
		t.Error("line arithmetic broken")
	}
}

func TestAllocDisjointProperty(t *testing.T) {
	s := NewSpace()
	var prev Region
	first := true
	f := func(sz uint32) bool {
		r := s.Alloc("p", uint64(sz%100000)+1)
		ok := r.Base%PageSize == 0
		if !first {
			ok = ok && r.Base >= prev.Base+Addr(prev.Size)
		}
		prev, first = r, false
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
