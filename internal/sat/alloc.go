package sat

import "math"

// Flat clause storage in the MiniSat ClauseAllocator style: every clause
// lives in one contiguous []Lit arena and is addressed by a 32-bit word
// offset (cref). The layout per clause, in 32-bit words:
//
//	[header] [lits...]                      problem clause
//	[header] [lbd] [actLo] [actHi] [lits...] learnt clause
//
// The header packs the literal count with four flag bits. flagExtras
// records the presence of the lbd/act words independently of flagLearnt:
// subsumption can promote a learnt clause to a problem clause in place
// (clearing flagLearnt) without changing its layout.
//
// Activity stays a float64 split across two words deliberately — clause
// activities feed the reduceDB eviction order, and narrowing them would
// change solver trajectories and break the byte-identical report
// contract.
//
// Deleting a clause only sets a flag and counts the span as wasted;
// garbageCollect (sat.go) compacts the arena into a fresh one when enough
// has accumulated, using flagReloced plus a forwarding reference written
// over the first post-header word.

// cref is a clause reference: a word offset into the arena.
type cref uint32

// crefUndef marks "no clause" (decision/assumption reasons).
const crefUndef = ^cref(0)

const (
	flagLearnt  = 1 << 0
	flagDeleted = 1 << 1
	flagReloced = 1 << 2
	flagExtras  = 1 << 3
	headerShift = 4
	flagMask    = 1<<headerShift - 1
)

type clauseAlloc struct {
	data   []Lit
	wasted int // words occupied by deleted clauses
}

// alloc appends a clause and returns its reference. lits is copied; the
// arena never aliases caller memory.
func (ca *clauseAlloc) alloc(lits []Lit, learnt bool) cref {
	r := cref(len(ca.data))
	hdr := Lit(len(lits) << headerShift)
	if learnt {
		hdr |= flagLearnt | flagExtras
	}
	ca.data = append(ca.data, hdr)
	if learnt {
		ca.data = append(ca.data, 0, 0, 0)
	}
	ca.data = append(ca.data, lits...)
	return r
}

func (ca *clauseAlloc) size(r cref) int    { return int(ca.data[r] >> headerShift) }
func (ca *clauseAlloc) learnt(r cref) bool { return ca.data[r]&flagLearnt != 0 }
func (ca *clauseAlloc) extras(r cref) bool { return ca.data[r]&flagExtras != 0 }

func (ca *clauseAlloc) deleted(r cref) bool { return ca.data[r]&flagDeleted != 0 }

// markDeleted flags the clause; the space is reclaimed at the next
// compaction.
func (ca *clauseAlloc) markDeleted(r cref) {
	if ca.data[r]&flagDeleted == 0 {
		ca.data[r] |= flagDeleted
		ca.wasted += ca.span(r)
	}
}

// demote clears the learnt flag (subsumption promoting a learnt clause to
// a problem clause); the extras words stay in place, merely ignored.
func (ca *clauseAlloc) demote(r cref) { ca.data[r] &^= flagLearnt }

// span is the total word footprint of the clause.
func (ca *clauseAlloc) span(r cref) int {
	n := 1 + ca.size(r)
	if ca.extras(r) {
		n += 3
	}
	return n
}

func (ca *clauseAlloc) litOff(r cref) cref {
	if ca.extras(r) {
		return r + 4
	}
	return r + 1
}

// lits returns the clause body as a mutable view into the arena. The view
// is invalidated by any alloc (the backing array may move), so callers
// must not hold it across clause creation.
func (ca *clauseAlloc) lits(r cref) []Lit {
	o := ca.litOff(r)
	return ca.data[o : o+cref(ca.size(r))]
}

func (ca *clauseAlloc) lbd(r cref) int       { return int(ca.data[r+1]) }
func (ca *clauseAlloc) setLBD(r cref, v int) { ca.data[r+1] = Lit(v) }

func (ca *clauseAlloc) act(r cref) float64 {
	bits := uint64(uint32(ca.data[r+2])) | uint64(uint32(ca.data[r+3]))<<32
	return math.Float64frombits(bits)
}

func (ca *clauseAlloc) setAct(r cref, v float64) {
	bits := math.Float64bits(v)
	ca.data[r+2] = Lit(int32(uint32(bits)))
	ca.data[r+3] = Lit(int32(uint32(bits >> 32)))
}

// reloc copies the clause into `to` (once — later calls return the
// forwarding reference) and returns its new address.
func (ca *clauseAlloc) reloc(r cref, to *clauseAlloc) cref {
	if ca.data[r]&flagReloced != 0 {
		return cref(uint32(ca.data[r+1]))
	}
	flags := ca.data[r] & flagMask
	var nr cref
	if flags&flagExtras != 0 {
		lbd, act := ca.lbd(r), ca.act(r)
		nr = to.alloc(ca.lits(r), true)
		to.data[nr] = to.data[nr]&^flagMask | flags
		to.setLBD(nr, lbd)
		to.setAct(nr, act)
	} else {
		nr = to.alloc(ca.lits(r), false)
		to.data[nr] = to.data[nr]&^flagMask | flags
	}
	ca.data[r] |= flagReloced
	ca.data[r+1] = Lit(int32(uint32(nr)))
	return nr
}
