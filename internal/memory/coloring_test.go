package memory

import "testing"

func TestNumColors(t *testing.T) {
	// 45056 sets (the paper machine's LLC) at 64 lines per page.
	if got := NumColors(45056); got != 704 {
		t.Errorf("NumColors = %d, want 704", got)
	}
	if got := NumColors(64); got != 1 {
		t.Errorf("NumColors(64) = %d, want 1", got)
	}
	if got := NumColors(16); got != 1 {
		t.Errorf("tiny cache colors = %d, want clamp to 1", got)
	}
}

func TestColorOf(t *testing.T) {
	if ColorOf(0, 8) != 0 || ColorOf(PageSize, 8) != 1 || ColorOf(8*PageSize, 8) != 0 {
		t.Error("color arithmetic broken")
	}
}

func TestAllocColoredRestrictsColors(t *testing.T) {
	s := NewSpace()
	colors := []int{2, 3}
	const numColors = 8
	r, err := s.AllocColored("c", 10*PageSize, colors, numColors)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 10*PageSize {
		t.Errorf("size = %d", r.Size())
	}
	for off := uint64(0); off < r.Size(); off += PageSize / 2 {
		c := ColorOf(r.Addr(off), numColors)
		if c != 2 && c != 3 {
			t.Fatalf("offset %d landed on color %d", off, c)
		}
	}
	// Logical contiguity within a page.
	if r.Addr(100)-r.Addr(0) != 100 {
		t.Error("within-page offsets not contiguous")
	}
}

func TestAllocColoredValidation(t *testing.T) {
	s := NewSpace()
	if _, err := s.AllocColored("c", 10, nil, 8); err == nil {
		t.Error("empty colors accepted")
	}
	if _, err := s.AllocColored("c", 10, []int{9}, 8); err == nil {
		t.Error("out-of-range color accepted")
	}
	if _, err := s.AllocColored("c", 10, []int{0}, 0); err == nil {
		t.Error("zero color count accepted")
	}
	r, err := s.AllocColored("c", 0, []int{0}, 4)
	if err != nil || r.Size() != PageSize {
		t.Errorf("zero-size alloc: %v, size %d", err, r.Size())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Addr should panic")
		}
	}()
	_ = r.Addr(PageSize)
}

func TestColoredDoesNotOverlapPlain(t *testing.T) {
	s := NewSpace()
	plain := s.Alloc("p", 4*PageSize)
	colored, err := s.AllocColored("c", 4*PageSize, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < colored.Size(); off += PageSize {
		a := colored.Addr(off)
		if plain.Contains(a) {
			t.Fatalf("colored page at %d overlaps plain region", a)
		}
	}
}
