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
