package prod

import "slices"

// agenda is the Rete matcher's conflict set in selection order: every
// instantiation refraction has not spent, sorted so the next to fire is
// last. The network keeps it current — addMatch queues, removeMatch and
// firing dequeue, and a Modify requeues the instantiations holding the
// modified element (betaNode.restamp) — so a cycle reads the top entry
// instead of ranking the whole conflict set.
//
// Refraction lives on the instantiation: firing marks the Match spent, and
// it stays in the conflict set, off the agenda, until a Modify restamps one
// of its elements, which gives it a refraction key no firing can have had
// (time tags only grow) and clears the mark. Any other new Match carries a
// new key too, except below a negated pattern: when a blocker leaves, the
// blocked token's instantiations are derived again with the elements and
// time tags of the ones the block deleted. So rules with a negated pattern
// also keep the keys of their fired instantiations.
//
// Entries are ordered by the time tags their elements carried when they
// were queued (token.time), not by live Element.Time: a Modify bumps the
// tag in place before the batch that requeues its instantiations runs, and
// until then the binary searches must see the tags the order was built
// from. Every such tag is restamped by the end of that batch, so between
// cycles the order is exactly betterRank's under current times.
type agenda struct {
	q []*Match // ascending rank: q[len(q)-1] fires next

	// fired holds the refraction keys of the fired instantiations of rules
	// with a negated pattern, probed when one of their entries is queued;
	// nil until the first such firing.
	fired map[refraction]bool

	// seeding defers ordering while the network's first full match runs:
	// entries are appended as derived and sorted once at the end.
	seeding bool
}

// queue adds m unless refraction has spent it.
func (a *agenda) queue(m *Match) {
	if m.spent || m.Rule.negates && a.fired[refractionKey(m)] {
		return
	}
	m.queued = true
	if a.seeding {
		a.q = append(a.q, m)
		return
	}
	a.q = slices.Insert(a.q, a.search(m), m)
}

// dequeue removes m if it is queued.
func (a *agenda) dequeue(m *Match) {
	if !m.queued {
		return
	}
	m.queued = false
	i := len(a.q) - 1
	if a.q[i] != m {
		i = a.search(m)
		if i == len(a.q) || a.q[i] != m {
			panic("prod: agenda out of order at " + describeMatch(m))
		}
	}
	a.q = slices.Delete(a.q, i, i+1)
}

// search returns the first position whose entry m does not outrank: where
// m belongs, and where it sits when queued (the order is total, so no
// other entry ties with it). A new entry usually holds the newest element
// and goes on top, so the top is tried first.
func (a *agenda) search(m *Match) int {
	var k, ik recencyRank
	k.stamped(m)
	beats := func(i int) bool {
		ik.stamped(a.q[i])
		return betterRank(m, &k, a.q[i], &ik)
	}
	hi := len(a.q)
	if hi == 0 || beats(hi-1) {
		return hi
	}
	lo := 0
	hi--
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if beats(h) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// fire spends m: it leaves the agenda, though it stays in the conflict set
// for as long as it matches, and a rule with a negated pattern records its
// key.
func (a *agenda) fire(m *Match) {
	m.spent = true
	if m.Rule.negates {
		if a.fired == nil {
			a.fired = map[refraction]bool{}
		}
		a.fired[refractionKey(m)] = true
	}
	a.dequeue(m)
}

// best returns the highest-ranked entry whose rule has no Where or whose
// Where passes against h, or nil. Where reads state outside working
// memory, so it is asked afresh each cycle, top down.
func (a *agenda) best(h Host) *Match {
	for i := len(a.q) - 1; i >= 0; i-- {
		m := a.q[i]
		if m.Rule.Where == nil || m.Rule.Where(h, m) {
			return m
		}
	}
	return nil
}

// seeded sorts the entries queued while seeding and ends seeding.
func (a *agenda) seeded() {
	a.seeding = false
	var kx, ky recencyRank
	slices.SortFunc(a.q, func(x, y *Match) int {
		kx.stamped(x)
		ky.stamped(y)
		switch {
		case x == y:
			return 0
		case betterRank(x, &kx, y, &ky):
			return 1
		}
		return -1
	})
}
