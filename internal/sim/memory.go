package sim

// pageWords is the size of one page of a Memory: a run that touches a
// few words pays 2 KiB per page, and the page table of a 64K-word memory
// is 256 pointers.
const pageWords = 256

// Memory is the word store behind every memory carrier of both
// simulators (this package and internal/rtlsim). Words live in pages of
// pageWords words, each allocated by the first nonzero write into it; an
// unwritten word reads as zero. A new Memory costs one page table, so a
// machine pays for the words a run touches, not for the memory's size.
//
// Addresses are 0-based and unchecked: callers range-check against the
// memory they model (and report the error in their own terms) before
// calling Word or SetWord.
type Memory struct {
	pages []*[pageWords]uint64
}

// NewMemory returns a memory of words words, all zero.
func NewMemory(words int) *Memory {
	return &Memory{pages: make([]*[pageWords]uint64, (words+pageWords-1)/pageWords)}
}

// Word reads the word at addr.
func (m *Memory) Word(addr int) uint64 {
	if p := m.pages[addr/pageWords]; p != nil {
		return p[addr%pageWords]
	}
	return 0
}

// SetWord writes v at addr. Writing zero into an unwritten page leaves
// it unallocated: the word already reads as zero.
func (m *Memory) SetWord(addr int, v uint64) {
	p := m.pages[addr/pageWords]
	if p == nil {
		if v == 0 {
			return
		}
		p = new([pageWords]uint64)
		m.pages[addr/pageWords] = p
	}
	p[addr%pageWords] = v
}
