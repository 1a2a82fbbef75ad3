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
	words int
}

// NewMemory returns a memory of words words, all zero.
func NewMemory(words int) *Memory {
	return &Memory{pages: make([]*[pageWords]uint64, (words+pageWords-1)/pageWords), words: words}
}

// Word reads the word at addr.
func (m *Memory) Word(addr int) uint64 {
	if p := m.page(addr / pageWords); p != nil {
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

// page returns page i, or nil when it is unallocated or past the end.
func (m *Memory) page(i int) *[pageWords]uint64 {
	if i < len(m.pages) {
		return m.pages[i]
	}
	return nil
}

// Diff compares a and b word by word over every page either of them
// allocated, so every word either side wrote; a page one side never
// allocated reads as zero there. It stops at the first difference and
// returns the number of words compared (through that difference), its
// address with the two words there, or addr -1 when the memories agree.
func Diff(a, b *Memory) (compared, addr int, x, y uint64) {
	words := max(a.words, b.words)
	for lo := 0; lo < words; lo += pageWords {
		if a.page(lo/pageWords) == nil && b.page(lo/pageWords) == nil {
			continue
		}
		for addr = lo; addr < min(lo+pageWords, words); addr++ {
			compared++
			if x, y = a.Word(addr), b.Word(addr); x != y {
				return compared, addr, x, y
			}
		}
	}
	return compared, -1, 0, 0
}
