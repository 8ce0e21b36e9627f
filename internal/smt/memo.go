package smt

import "sort"

// Memo is reusable scratch for walks over a term DAG: a per-term mark and
// an optional per-term value, both indexed by term ID. Each walk starts
// with Begin, which bumps a generation stamp; an entry counts only when
// its stamp equals the current generation, so starting a walk forgets
// every earlier entry in O(1) and a warm Memo walks without allocating.
//
// Begin(root) sizes the arrays to root.ID+1, which covers the whole DAG
// under root because every argument's ID is below its parent's (see
// Term.ID). Get, Put and the marks are valid only for terms under the
// root of the current walk, and only within one Ctx.
//
// A Memo is not safe for concurrent use; each one has a single owner.
// The zero value is ready to use.
type Memo struct {
	gen    uint32
	stamps []uint32 // term ID -> generation of the walk that touched it
	vals   []*Term  // term ID -> Put value; allocated on the first Put
	stack  []*Term  // Vars work list, kept between walks
}

// Begin starts a new walk under root, forgetting every entry of the
// previous one.
func (m *Memo) Begin(root *Term) {
	m.gen++
	if m.gen == 0 {
		// Wrapped: stamps from 2^32 walks ago would read as current.
		clear(m.stamps)
		m.gen = 1
	}
	if n := root.ID + 1; n > len(m.stamps) {
		m.stamps = append(m.stamps, make([]uint32, n-len(m.stamps))...)
	}
}

// Get returns the value Put for t in the current walk.
func (m *Memo) Get(t *Term) (*Term, bool) {
	if m.stamps[t.ID] != m.gen {
		return nil, false
	}
	return m.vals[t.ID], true
}

// Put records v as t's value for the current walk.
func (m *Memo) Put(t, v *Term) {
	if len(m.vals) < len(m.stamps) {
		m.vals = append(m.vals, make([]*Term, len(m.stamps)-len(m.vals))...)
	}
	m.stamps[t.ID] = m.gen
	m.vals[t.ID] = v
}

// visit marks t and reports whether it was unmarked in this walk.
func (m *Memo) visit(t *Term) bool {
	if m.stamps[t.ID] == m.gen {
		return false
	}
	m.stamps[t.ID] = m.gen
	return true
}

// Vars returns the free variables of t, sorted by name. It starts a new
// walk.
func (m *Memo) Vars(t *Term) []*Term {
	// Iterative walk: counterexample rendering calls this on full VC terms,
	// which can be too deep for recursion on large parser state spaces.
	m.Begin(t)
	m.visit(t)
	var out []*Term
	stack := append(m.stack[:0], t)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x.Op == OpBVVar || x.Op == OpBoolVar {
			out = append(out, x)
			continue
		}
		for _, a := range x.Args {
			if m.visit(a) {
				stack = append(stack, a)
			}
		}
	}
	m.stack = stack[:0]
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Vars returns the free variables of t, sorted by name. Each call walks
// with a Memo of its own, so concurrent calls are safe; hot loops should
// own a Memo and call its Vars method instead.
func Vars(t *Term) []*Term {
	var m Memo
	return m.Vars(t)
}
