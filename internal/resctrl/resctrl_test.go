package resctrl

import (
	"strings"
	"testing"

	"cachepart/internal/cat"
)

func mountTest(t *testing.T) (*FS, *cat.Registers) {
	t.Helper()
	regs, err := cat.NewRegisters(8, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Mount(regs), regs
}

func TestMountRootGroup(t *testing.T) {
	fs, regs := mountTest(t)
	if len(fs.groups) != 1 || fs.groups[RootGroup] == nil {
		t.Fatalf("groups = %v, want only root", fs.groups)
	}
	m, err := fs.Mask(RootGroup)
	if err != nil || m != cat.FullMask(20) {
		t.Errorf("root mask = %v (%v), want full", m, err)
	}
	if regs.MaskOf(0) != cat.FullMask(20) {
		t.Error("cores should start with full mask")
	}
}

func TestMakeGroupAllocatesCLOS(t *testing.T) {
	fs, _ := mountTest(t)
	for _, n := range []string{"polluting", "sensitive", "join"} {
		if err := fs.MakeGroup(n); err != nil {
			t.Fatalf("MakeGroup(%q): %v", n, err)
		}
	}
	// 4 CLOS total, root uses one, three groups fill the rest.
	if err := fs.MakeGroup("overflow"); err == nil {
		t.Error("expected CLOS exhaustion")
	}
	if err := fs.MakeGroup("polluting"); err == nil {
		t.Error("duplicate group should fail")
	}
	if err := fs.MakeGroup(""); err == nil {
		t.Error("empty name should fail")
	}
	if err := fs.MakeGroup("a/b"); err == nil {
		t.Error("slash in name should fail")
	}
}

func TestWriteSchemataProgramsMask(t *testing.T) {
	fs, regs := mountTest(t)
	if err := fs.MakeGroup("polluting"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteSchemata("polluting", "L3:0=3"); err != nil {
		t.Fatal(err)
	}
	m, _ := fs.Mask("polluting")
	if m != 0x3 {
		t.Errorf("mask = %v, want 0x3", m)
	}
	// Scheduling a task from that group programs the core register.
	if err := fs.MoveTask(101, "polluting"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Schedule(101, 5); err != nil {
		t.Fatal(err)
	}
	if got := regs.MaskOf(5); got != 0x3 {
		t.Errorf("core 5 mask = %v, want 0x3", got)
	}
	// A root task scheduled on the same core restores the full mask.
	if err := fs.Schedule(999, 5); err != nil {
		t.Fatal(err)
	}
	if got := regs.MaskOf(5); got != cat.FullMask(20) {
		t.Errorf("core 5 mask after root task = %v, want full", got)
	}
}

func TestReadSchemataRoundTrip(t *testing.T) {
	fs, _ := mountTest(t)
	_ = fs.MakeGroup("g")
	for _, mask := range []string{"3", "fff", "fffff"} {
		if err := fs.WriteSchemata("g", "L3:0="+mask); err != nil {
			t.Fatal(err)
		}
		m, err := fs.Mask("g")
		if got := FormatSchemata(m); err != nil || got != "L3:0="+mask {
			t.Errorf("round trip %q -> %q (%v)", mask, got, err)
		}
	}
}

func TestMoveTaskElidesRedundantWrites(t *testing.T) {
	fs, _ := mountTest(t)
	_ = fs.MakeGroup("g")
	if err := fs.MoveTask(7, "g"); err != nil {
		t.Fatal(err)
	}
	w := fs.Writes()
	for i := 0; i < 10; i++ {
		if err := fs.MoveTask(7, "g"); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Writes() != w {
		t.Errorf("redundant MoveTask performed %d extra writes", fs.Writes()-w)
	}
	if g := fs.GroupOf(7); g != "g" {
		t.Errorf("GroupOf = %q", g)
	}
}

func TestScheduleElidesSameCLOS(t *testing.T) {
	fs, regs := mountTest(t)
	_ = fs.MakeGroup("g")
	_ = fs.MoveTask(1, "g")
	_ = fs.Schedule(1, 0)
	w := regs.Writes()
	// Same task, same core, same CLOS: no register write.
	_ = fs.Schedule(1, 0)
	if regs.Writes() != w {
		t.Error("redundant Schedule wrote registers")
	}
}

func TestParseSchemata(t *testing.T) {
	good := map[string]cat.WayMask{
		"L3:0=fffff":     0xfffff,
		"L3:0=3":         0x3,
		" L3:0=fff ":     0xfff,
		"L3:0=3;1=fffff": 0x3, // second socket ignored
		"L3:1=fffff 0=3": 0x3,
		"L3:0=FFF":       0xfff,
	}
	for in, want := range good {
		got, err := ParseSchemata(in, 20)
		if err != nil || got != want {
			t.Errorf("ParseSchemata(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	bad := []string{
		"", "L2:0=3", "L3:0=", "L3:0=zz", "L3:1=3", "L3:0=0",
		"L3:0=5",      // not contiguous
		"L3:0=1fffff", // beyond 20 ways
		"L3:0",        // no '='
	}
	for _, in := range bad {
		if _, err := ParseSchemata(in, 20); err == nil {
			t.Errorf("ParseSchemata(%q) should fail", in)
		}
	}
}

func TestWriteSchemataErrors(t *testing.T) {
	fs, _ := mountTest(t)
	if err := fs.WriteSchemata("nope", "L3:0=3"); err == nil {
		t.Error("unknown group should fail")
	}
	if err := fs.WriteSchemata(RootGroup, "garbage"); err == nil {
		t.Error("garbage schemata should fail")
	}
	if err := fs.MoveTask(1, "nope"); err == nil {
		t.Error("MoveTask to unknown group should fail")
	}
	if _, err := fs.Mask("nope"); err == nil {
		t.Error("Mask of unknown group should fail")
	}
}

func TestFormatSchemata(t *testing.T) {
	if got := FormatSchemata(0x3); got != "L3:0=3" {
		t.Errorf("FormatSchemata = %q", got)
	}
	if !strings.HasPrefix(FormatSchemata(0xfffff), "L3:0=") {
		t.Error("format prefix wrong")
	}
}
