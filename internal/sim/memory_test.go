package sim_test

import (
	"testing"

	"repro/internal/sim"
)

// A Memory allocates nothing but its page table until a nonzero word is
// written, then one page per page written: reads and zero writes of
// unwritten pages allocate nothing, and a second write into a written
// page allocates nothing more. The word values themselves are checked
// through both simulators in internal/rtlsim's TestPagedMemory.
func TestPagedMemoryAllocs(t *testing.T) {
	var m *sim.Memory
	base := testing.AllocsPerRun(10, func() { m = sim.NewMemory(1 << 16) })
	for _, c := range []struct {
		name  string
		pages float64
		use   func(m *sim.Memory)
	}{
		{"read and zero-write unwritten pages", 0, func(m *sim.Memory) {
			_ = m.Word(0)
			_ = m.Word(1<<16 - 1)
			m.SetWord(300, 0)
		}},
		{"two words of one page", 1, func(m *sim.Memory) {
			m.SetWord(256, 1)
			m.SetWord(511, 2)
		}},
		{"words either side of a page boundary", 2, func(m *sim.Memory) {
			m.SetWord(255, 1)
			m.SetWord(256, 2)
		}},
	} {
		got := testing.AllocsPerRun(10, func() {
			m = sim.NewMemory(1 << 16)
			c.use(m)
		})
		if got != base+c.pages {
			t.Errorf("%s: %.0f allocations, want %.0f (the memory) + %.0f (pages)", c.name, got, base, c.pages)
		}
	}
}

// Diff compares the union of the pages two memories allocated, a page one
// side never allocated reading as zero, and counts the words it compares.
func TestPagedMemoryDiff(t *testing.T) {
	type word struct{ addr, v int }
	cases := []struct {
		name           string
		wordsA, wordsB int
		a, b           []word
		compared, addr int
		x, y           uint64
	}{
		{"nothing written", 1024, 1024, nil, nil, 0, -1, 0, 0},
		{"one page, equal", 1024, 1024, []word{{5, 1}}, []word{{5, 1}}, 256, -1, 0, 0},
		{"a page only one side wrote", 1024, 1024, nil, []word{{300, 7}}, 45, 300, 0, 7},
		{"union of pages", 1024, 1024, []word{{5, 1}}, []word{{5, 1}, {601, 3}}, 256 + 90, 601, 0, 3},
		{"last page cut at the memory's end", 300, 300, []word{{299, 2}}, nil, 44, 299, 2, 0},
		{"equal over a partial last page", 300, 300, []word{{299, 2}}, []word{{299, 2}}, 44, -1, 0, 0},
		{"sizes differ", 256, 512, nil, []word{{300, 1}}, 45, 300, 0, 1},
	}
	for _, c := range cases {
		a, b := sim.NewMemory(c.wordsA), sim.NewMemory(c.wordsB)
		for _, w := range c.a {
			a.SetWord(w.addr, uint64(w.v))
		}
		for _, w := range c.b {
			b.SetWord(w.addr, uint64(w.v))
		}
		compared, addr, x, y := sim.Diff(a, b)
		if compared != c.compared || addr != c.addr || x != c.x || y != c.y {
			t.Errorf("%s: Diff = %d words, addr %d (%#x, %#x); want %d, %d (%#x, %#x)",
				c.name, compared, addr, x, y, c.compared, c.addr, c.x, c.y)
		}
		if allocs := testing.AllocsPerRun(10, func() { sim.Diff(a, b) }); allocs != 0 {
			t.Errorf("%s: Diff made %.0f allocations, want 0", c.name, allocs)
		}
	}
}
