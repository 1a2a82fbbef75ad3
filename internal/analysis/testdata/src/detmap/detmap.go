// Fixture for the detmap analyzer. Fixture packages sit outside the
// repro module, so both checks (map ranging and clock/randomness) are in
// scope for every file.
package detmap

import (
	"math/rand"
	"slices"
	"sort"
	"time"
)

// sumValues iterates a map with a body that does real work: the visit
// order leaks into the accumulated output.
func sumValues(m map[string]int) string {
	s := ""
	for k, v := range m { // want `iteration over map m has nondeterministic order`
		if v > 0 {
			s += k
		}
	}
	return s
}

// countKeys ranges with no body statements at all.
func countKeys(m map[string]bool) int {
	n := 0
	for range m { // want `iteration over map m has nondeterministic order`
		n++
	}
	return n
}

// sortedKeys is the sanctioned collect-keys-then-sort idiom: the loop
// body only appends, so order does not matter.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unsortedKeys collects the keys but nothing sorts them, so the returned
// slice carries the map's order.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // want `iteration over map m has nondeterministic order: it collects into keys, which this function never sorts afterwards`
		keys = append(keys, k)
	}
	return keys
}

// sortedTooEarly sorts before the loop, which does not order what the
// loop appends.
func sortedTooEarly(m map[string]int, keys []string) []string {
	sort.Strings(keys)
	for k := range m { // want `it collects into keys, which this function never sorts afterwards`
		keys = append(keys, k)
	}
	return keys
}

// partlySorted collects into two slices and sorts only one of them.
func partlySorted(m map[int]bool) ([]int, []int) {
	var pos, neg []int
	for k := range m { // want `it collects into neg, which this function never sorts afterwards`
		pos = append(pos, k)
		neg = append(neg, -k)
	}
	sort.Ints(pos)
	return pos, neg
}

// helperSorted collects into two slices and sorts both: one with
// slices.Sort, one with a local sort helper.
func helperSorted(m map[int]bool) ([]int, []int) {
	var pos, neg []int
	for k := range m {
		pos = append(pos, k)
		neg = append(neg, -k)
	}
	slices.Sort(pos)
	sortDesc(neg)
	return pos, neg
}

func sortDesc(xs []int) { sort.Sort(sort.Reverse(sort.IntSlice(xs))) }

// sliceRange: ranging over a slice is ordered and fine.
func sliceRange(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// allowedRange carries the documented escape hatch.
func allowedRange(m map[string]int) int {
	max := 0
	//daalint:allow detmap order-insensitive maximum
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// stamp reads the wall clock and global randomness.
func stamp() (int64, int) {
	t := time.Now()     // want `time\.Now in a determinism-critical path`
	d := time.Since(t)  // want `time\.Since in a determinism-critical path`
	n := rand.Intn(100) // want `math/rand in a determinism-critical path`
	return int64(d), n
}

// pure uses time only for arithmetic on supplied values — no clock read.
func pure(d time.Duration) time.Duration {
	return d * time.Millisecond
}
