// Package smt implements the quantifier-free bit-vector (QF_BV) theory
// layer of Aquila's verification stack: a hash-consed term language with
// constant folding, a Tseitin bit-blaster targeting the CDCL solver in
// package sat, model extraction, and an assumption-based MaxSAT procedure
// used by bug localization (§5 of the paper).
//
// The paper uses Z3; this package is the substitution documented in
// DESIGN.md. Verdicts (sat/unsat and models) are interchangeable with any
// sound and complete QF_BV solver.
package smt

import (
	"fmt"
	"math/big"
	"strings"
	"sync"
)

// Op identifies a term constructor.
type Op uint8

// Term operators. BV operators produce bit-vector terms; the remainder
// produce boolean terms.
const (
	OpBVConst Op = iota
	OpBVVar
	OpBVNot
	OpBVNeg
	OpBVAnd
	OpBVOr
	OpBVXor
	OpBVAdd
	OpBVSub
	OpBVMul
	OpBVShl
	OpBVLshr
	OpBVConcat  // args[0] is high bits, args[1] is low bits
	OpBVExtract // bits Hi..Lo of args[0]
	OpBVIte     // args[0] bool, args[1], args[2] bv

	OpBoolConst
	OpBoolVar
	OpNot
	OpAnd
	OpOr
	OpImplies
	OpIff
	OpEq  // bv equality
	OpUlt // unsigned less-than
	OpUle // unsigned less-or-equal
	OpBoolIte
)

var opNames = map[Op]string{
	OpBVConst: "const", OpBVVar: "var", OpBVNot: "bvnot", OpBVNeg: "bvneg",
	OpBVAnd: "bvand", OpBVOr: "bvor", OpBVXor: "bvxor", OpBVAdd: "bvadd",
	OpBVSub: "bvsub", OpBVMul: "bvmul", OpBVShl: "bvshl", OpBVLshr: "bvlshr",
	OpBVConcat: "concat", OpBVExtract: "extract", OpBVIte: "bvite",
	OpBoolConst: "bool", OpBoolVar: "boolvar", OpNot: "not", OpAnd: "and",
	OpOr: "or", OpImplies: "=>", OpIff: "<=>", OpEq: "=", OpUlt: "bvult",
	OpUle: "bvule", OpBoolIte: "ite",
}

// Term is an immutable, hash-consed SMT term. Boolean terms have Width 0;
// bit-vector terms have Width >= 1. Terms must be created through a Ctx;
// pointer equality coincides with structural equality within one Ctx.
type Term struct {
	// ID is the term's arena position: IDs are assigned in creation
	// order, and a term is created only after its arguments, so every
	// argument's ID is below its parent's. Release keeps this ordering
	// (reused IDs go to terms created after the release). Memo relies on
	// it to size its arrays from a walk's root alone.
	ID    int
	Op    Op
	Width int // 0 for boolean terms
	Args  []*Term
	Name  string   // variables
	Val   *big.Int // constants (normalized into [0, 2^Width))
	Hi    int      // extract upper bit (inclusive)
	Lo    int      // extract lower bit (inclusive)
	// SHash is the term's structural hash: a fingerprint over the
	// operator, width, extract bounds, name, constant value, and the
	// children's structural hashes — and nothing else. Unlike ID (an
	// arena position that depends on construction history), SHash is
	// identical for structurally equal terms across contexts, so the
	// commutative-operand canonical order derived from it is too. That
	// is what keeps a warm re-encoding context (verify.Session) building
	// the same DAG a fresh context would.
	SHash uint64
}

// IsBool reports whether the term is boolean-sorted.
func (t *Term) IsBool() bool { return t.Width == 0 }

// IsConst reports whether the term is a constant.
func (t *Term) IsConst() bool { return t.Op == OpBVConst || t.Op == OpBoolConst }

// ConstUint64 returns the value of a bit-vector constant as uint64.
// It panics on non-constants or widths above 64.
func (t *Term) ConstUint64() uint64 {
	if t.Op != OpBVConst {
		panic("smt: ConstUint64 on non-constant")
	}
	return t.Val.Uint64()
}

// ConstBool returns the value of a boolean constant.
func (t *Term) ConstBool() bool {
	if t.Op != OpBoolConst {
		panic("smt: ConstBool on non-constant")
	}
	return t.Val.Sign() != 0
}

// String renders the term in SMT-LIB-flavoured prefix form.
func (t *Term) String() string {
	switch t.Op {
	case OpBVConst:
		return fmt.Sprintf("#x%s[%d]", t.Val.Text(16), t.Width)
	case OpBoolConst:
		if t.ConstBool() {
			return "true"
		}
		return "false"
	case OpBVVar, OpBoolVar:
		return t.Name
	case OpBVExtract:
		return fmt.Sprintf("(extract %d %d %s)", t.Hi, t.Lo, t.Args[0])
	}
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(opNames[t.Op])
	for _, a := range t.Args {
		b.WriteByte(' ')
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Ctx owns a hash-consing table; all terms used together must come from the
// same Ctx. A Ctx starts out single-goroutine (no synchronization on the
// hot path); after Freeze it may be shared across goroutines — existing
// terms are immutable and read freely, and any residual interning is
// serialized through a mutex.
//
// Storage is arena-shaped for locality and allocation volume: terms live
// in append-only fixed-size slabs (a *Term is a pointer into a slab, so
// it stays valid forever — growth appends a new slab, it never moves an
// old one), argument slices are carved out of shared backing arrays, and
// the intern table is open addressing over term IDs. Interning a term
// that already exists allocates nothing; creating one costs only its
// amortized slab space.
type Ctx struct {
	slots    []uint32 // open addressing: term ID + 1; 0 = empty slot
	chunks   [][]Term // term slabs of termChunk entries each
	hashes   []uint64 // term ID -> intern hash, reused when slots grow
	argChunk []*Term  // unfilled tail of the current argument slab
	true_    *Term
	false_   *Term

	// Size accounting, used by the benchmark harness to report formula
	// sizes the way the paper reports memory footprints. created is also
	// the next term ID.
	created int

	// shared is set by Freeze; from then on intern and NumTerms take mu.
	// It is written strictly before the Ctx is handed to other goroutines.
	shared bool
	mu     sync.Mutex

	// Interning instrumentation. internHits/internMisses count table
	// lookups (misses == created); frozenLocks counts mu acquisitions
	// after Freeze — the contention proxy for the parallel engine. Plain
	// fields mutated single-goroutine before Freeze and under mu after;
	// InternStats takes mu when shared, mirroring NumTerms.
	internHits   int64
	internMisses int64
	frozenLocks  int64

	// releasedTerms counts terms discarded by Release.
	releasedTerms int64
}

// InternStats reports hash-consing hits and misses and the number of
// frozen-context mutex acquisitions so far.
func (c *Ctx) InternStats() (hits, misses, frozenLocks int64) {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.internHits, c.internMisses, c.frozenLocks
}

// Arena geometry. Term slabs hold termChunk terms (the power of two keeps
// ID -> slab addressing a shift and mask); argument slabs hold argChunkLen
// pointers. No term has more than three arguments (ite).
const (
	termChunkShift = 10
	termChunk      = 1 << termChunkShift
	termChunkMask  = termChunk - 1
	argChunkLen    = 4096
	maxTermArgs    = 3
)

// protoTerm is the stack-held prototype a constructor hands to intern: the
// would-be term's fields with the argument pointers inlined. intern only
// reads it, so escape analysis keeps it off the heap — the per-lookup
// allocation the old map[termKey]*Term design paid (a *Term plus its args
// slice per call, hit or miss) is gone.
type protoTerm struct {
	op     Op
	width  int
	hi, lo int
	name   string
	val    *big.Int // normalized into [0, 2^width); nil unless a constant
	args   [maxTermArgs]*Term
	n      int
}

// hash mixes the prototype's identity fields FNV-1a style. Argument
// pointers are not hashable run-to-run, so argument IDs are mixed instead
// (pointer equality coincides with ID equality within one Ctx).
func (p *protoTerm) hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(p.op))
	mix(uint64(p.width))
	mix(uint64(p.hi)<<32 | uint64(uint32(p.lo)))
	for i := 0; i < len(p.name); i++ {
		mix(uint64(p.name[i]))
	}
	if p.val != nil {
		mix(1)
		for _, w := range p.val.Bits() {
			mix(uint64(w))
		}
	}
	for i := 0; i < p.n; i++ {
		mix(uint64(p.args[i].ID) + 1)
	}
	return h
}

// shash computes the prototype's structural hash (Term.SHash): the same
// FNV-1a mixing as hash, except that child terms contribute their own
// structural hashes instead of their arena IDs, making the result
// independent of construction history. A distinct seed keeps it
// uncorrelated with the intern-table hash.
func (p *protoTerm) shash() uint64 {
	const prime = 1099511628211
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(p.op) + 1)
	mix(uint64(p.width))
	mix(uint64(p.hi)<<32 | uint64(uint32(p.lo)))
	for i := 0; i < len(p.name); i++ {
		mix(uint64(p.name[i]))
	}
	if p.val != nil {
		mix(1)
		for _, w := range p.val.Bits() {
			mix(uint64(w))
		}
	}
	for i := 0; i < p.n; i++ {
		mix(p.args[i].SHash)
	}
	return h
}

// structLess is the canonical commutative-operand order: by structural
// hash, with a full structural comparison as the collision tiebreak.
// Within one Ctx structural equality coincides with pointer equality, so
// for a != b the tiebreak always separates them without consulting IDs —
// the order two operands sort in is a pure function of their structure.
func structLess(a, b *Term) bool { return structCmp(a, b) < 0 }

// structCmp three-way-compares two terms structurally. The SHash fast
// path decides virtually every call; the recursive walk only runs on a
// 64-bit hash collision between distinct terms.
func structCmp(a, b *Term) int {
	if a == b {
		return 0
	}
	if a.SHash != b.SHash {
		if a.SHash < b.SHash {
			return -1
		}
		return 1
	}
	if a.Op != b.Op {
		return int(a.Op) - int(b.Op)
	}
	if a.Width != b.Width {
		return a.Width - b.Width
	}
	if a.Hi != b.Hi {
		return a.Hi - b.Hi
	}
	if a.Lo != b.Lo {
		return a.Lo - b.Lo
	}
	if a.Name != b.Name {
		if a.Name < b.Name {
			return -1
		}
		return 1
	}
	if (a.Val == nil) != (b.Val == nil) {
		if a.Val == nil {
			return -1
		}
		return 1
	}
	if a.Val != nil {
		if c := a.Val.Cmp(b.Val); c != 0 {
			return c
		}
	}
	if len(a.Args) != len(b.Args) {
		return len(a.Args) - len(b.Args)
	}
	for i := range a.Args {
		if c := structCmp(a.Args[i], b.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// matches reports whether the already-interned term t is the term the
// prototype describes.
func (p *protoTerm) matches(t *Term) bool {
	if t.Op != p.op || t.Width != p.width || t.Hi != p.hi || t.Lo != p.lo ||
		len(t.Args) != p.n || t.Name != p.name {
		return false
	}
	for i := 0; i < p.n; i++ {
		if t.Args[i] != p.args[i] {
			return false
		}
	}
	if (t.Val == nil) != (p.val == nil) {
		return false
	}
	return t.Val == nil || t.Val.Cmp(p.val) == 0
}

// NewCtx returns an empty term context.
func NewCtx() *Ctx {
	c := &Ctx{slots: make([]uint32, 1024)}
	c.true_ = c.intern(&protoTerm{op: OpBoolConst, val: big.NewInt(1)})
	c.false_ = c.intern(&protoTerm{op: OpBoolConst, val: big.NewInt(0)})
	return c
}

// Freeze marks the context as shared across goroutines. Term construction
// remains possible (serialized through an internal mutex), but the intended
// pattern is: encode everything, Freeze, then fan out read-only consumers
// (blasting, solving, model evaluation) — none of which create terms.
// Freeze must be called before the Ctx is handed to other goroutines;
// there is no Unfreeze.
func (c *Ctx) Freeze() { c.shared = true }

// Frozen reports whether Freeze has been called. Frozen contexts are
// shared and refuse Release.
func (c *Ctx) Frozen() bool { return c.shared }

// NumTerms returns the number of distinct terms created in this context —
// a proxy for formula memory footprint.
func (c *Ctx) NumTerms() int {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.frozenLocks++
	}
	return c.created
}

// termByID returns the arena slot of an existing term.
func (c *Ctx) termByID(id int) *Term {
	return &c.chunks[id>>termChunkShift][id&termChunkMask]
}

// ReleasedTerms reports the number of terms discarded by Release so far.
func (c *Ctx) ReleasedTerms() int64 {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.releasedTerms
}

// Mark returns a watermark identifying the current extent of the term
// arena, for a later Release. It is simply the number of terms created so
// far: every term with ID >= the mark was created after it.
func (c *Ctx) Mark() int { return c.NumTerms() }

// Release discards every term created since the mark: the terms are
// removed from the intern table, their arena slots are zeroed (so the
// argument slabs and constant values they referenced become collectable),
// and subsequently created terms reuse the released IDs. Session.Compact
// uses this to return a warm session's context to its creation mark.
//
// Correctness is the caller's bargain: no pointer to a released term may
// be used again, and no external structure keyed by term ID may retain
// entries referencing released terms (IDs are reused). Release requires
// exclusive ownership of the Ctx and panics on a frozen (shared) context.
func (c *Ctx) Release(mark int) {
	if c.shared {
		panic("smt: Release on frozen Ctx")
	}
	if mark < 2 || mark > c.created {
		panic(fmt.Sprintf("smt: Release mark %d out of range [2, %d]", mark, c.created))
	}
	if mark == c.created {
		return
	}
	c.releasedTerms += int64(c.created - mark)
	// Zero the released tail of the boundary chunk and drop whole chunks
	// past it (nil-ing the dropped slots so the backing arrays are not
	// pinned by the chunks slice's capacity).
	if off := mark & termChunkMask; off != 0 {
		tail := c.chunks[mark>>termChunkShift][off:]
		for i := range tail {
			tail[i] = Term{}
		}
	}
	nChunks := (mark + termChunk - 1) >> termChunkShift
	for i := nChunks; i < len(c.chunks); i++ {
		c.chunks[i] = nil
	}
	c.chunks = c.chunks[:nChunks]
	c.hashes = c.hashes[:mark]
	c.created = mark
	// Rebuild the open-addressing table over the surviving terms. The table
	// also shrinks back if the released burst had grown it.
	size := 1024
	for mark*4 >= size*3 {
		size *= 2
	}
	if size > len(c.slots) {
		size = len(c.slots)
	}
	slots := make([]uint32, size)
	maskS := uint64(size - 1)
	for id := 0; id < mark; id++ {
		i := c.hashes[id] & maskS
		for slots[i] != 0 {
			i = (i + 1) & maskS
		}
		slots[i] = uint32(id + 1)
	}
	c.slots = slots
}

func (c *Ctx) intern(p *protoTerm) *Term {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.frozenLocks++
	}
	h := p.hash()
	mask := uint64(len(c.slots) - 1)
	i := h & mask
	for {
		s := c.slots[i]
		if s == 0 {
			break
		}
		if t := c.termByID(int(s - 1)); p.matches(t) {
			c.internHits++
			return t
		}
		i = (i + 1) & mask
	}
	c.internMisses++
	id := c.created
	if id>>termChunkShift == len(c.chunks) {
		c.chunks = append(c.chunks, make([]Term, termChunk))
	}
	t := &c.chunks[id>>termChunkShift][id&termChunkMask]
	t.ID = id
	t.Op = p.op
	t.Width = p.width
	t.Hi, t.Lo = p.hi, p.lo
	t.Name = p.name
	t.SHash = p.shash()
	if p.val != nil {
		// Store a private copy: callers may reuse or mutate the big.Int
		// they passed in.
		t.Val = new(big.Int).Set(p.val)
	}
	if p.n > 0 {
		t.Args = c.allocArgs(p.args[:p.n])
	}
	c.hashes = append(c.hashes, h)
	c.created++
	c.slots[i] = uint32(id + 1)
	if c.created*4 >= len(c.slots)*3 {
		c.growSlots()
	}
	return t
}

// allocArgs copies args into the shared argument arena and returns the
// capacity-capped subslice. Old slabs stay alive through the subslices
// that point into them; the Ctx only tracks the unfilled tail.
func (c *Ctx) allocArgs(args []*Term) []*Term {
	if len(c.argChunk) < len(args) {
		c.argChunk = make([]*Term, argChunkLen)
	}
	out := c.argChunk[:len(args):len(args)]
	c.argChunk = c.argChunk[len(args):]
	copy(out, args)
	return out
}

// growSlots doubles the open-addressing table and reinserts every term by
// its recorded hash.
func (c *Ctx) growSlots() {
	slots := make([]uint32, len(c.slots)*2)
	mask := uint64(len(slots) - 1)
	for id := 0; id < c.created; id++ {
		i := c.hashes[id] & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(id + 1)
	}
	c.slots = slots
}

// maskCache holds 2^w - 1 for small widths; the masks are read-only (every
// operation on them copies first), so sharing across goroutines is safe.
var maskCache = func() []*big.Int {
	masks := make([]*big.Int, 257)
	for w := range masks {
		m := new(big.Int).Lsh(big.NewInt(1), uint(w))
		masks[w] = m.Sub(m, big.NewInt(1))
	}
	return masks
}()

// maskFor returns 2^width - 1. The result is shared and must not be
// mutated.
func maskFor(width int) *big.Int {
	if width >= 0 && width < len(maskCache) {
		return maskCache[width]
	}
	m := new(big.Int).Lsh(big.NewInt(1), uint(width))
	return m.Sub(m, big.NewInt(1))
}

func normConst(v *big.Int, width int) *big.Int {
	out := new(big.Int).And(v, maskFor(width))
	return out
}

// ---- boolean constructors ----

// True returns the boolean constant true.
func (c *Ctx) True() *Term { return c.true_ }

// False returns the boolean constant false.
func (c *Ctx) False() *Term { return c.false_ }

// Bool returns the boolean constant for v.
func (c *Ctx) Bool(v bool) *Term {
	if v {
		return c.true_
	}
	return c.false_
}

// BoolVar returns the boolean variable with the given name.
func (c *Ctx) BoolVar(name string) *Term {
	return c.intern(&protoTerm{op: OpBoolVar, name: name})
}

// Not returns the boolean negation of a.
func (c *Ctx) Not(a *Term) *Term {
	mustBool("Not", a)
	if a.Op == OpBoolConst {
		return c.Bool(!a.ConstBool())
	}
	if a.Op == OpNot {
		return a.Args[0]
	}
	return c.intern(&protoTerm{op: OpNot, args: [maxTermArgs]*Term{a}, n: 1})
}

// And returns the conjunction of the arguments (true when empty).
func (c *Ctx) And(args ...*Term) *Term {
	flat := make([]*Term, 0, len(args))
	for _, a := range args {
		mustBool("And", a)
		if a.Op == OpBoolConst {
			if !a.ConstBool() {
				return c.false_
			}
			continue
		}
		flat = append(flat, a)
	}
	switch len(flat) {
	case 0:
		return c.true_
	case 1:
		return flat[0]
	}
	// Balanced binary reduction keeps blasting depth logarithmic.
	for len(flat) > 1 {
		var next []*Term
		for i := 0; i < len(flat); i += 2 {
			if i+1 == len(flat) {
				next = append(next, flat[i])
			} else {
				next = append(next, c.and2(flat[i], flat[i+1]))
			}
		}
		flat = next
	}
	return flat[0]
}

func (c *Ctx) and2(a, b *Term) *Term {
	if a == b {
		return a
	}
	if a == c.Not(b) {
		return c.false_
	}
	if structLess(b, a) {
		a, b = b, a
	}
	return c.intern(&protoTerm{op: OpAnd, args: [maxTermArgs]*Term{a, b}, n: 2})
}

// Or returns the disjunction of the arguments (false when empty).
func (c *Ctx) Or(args ...*Term) *Term {
	neg := make([]*Term, len(args))
	for i, a := range args {
		mustBool("Or", a)
		neg[i] = c.Not(a)
	}
	return c.Not(c.And(neg...))
}

// Implies returns a -> b.
func (c *Ctx) Implies(a, b *Term) *Term { return c.Or(c.Not(a), b) }

// Iff returns a <-> b.
func (c *Ctx) Iff(a, b *Term) *Term {
	mustBool("Iff", a)
	mustBool("Iff", b)
	if a == b {
		return c.true_
	}
	if a.Op == OpBoolConst {
		if a.ConstBool() {
			return b
		}
		return c.Not(b)
	}
	if b.Op == OpBoolConst {
		if b.ConstBool() {
			return a
		}
		return c.Not(a)
	}
	if structLess(b, a) {
		a, b = b, a
	}
	return c.intern(&protoTerm{op: OpIff, args: [maxTermArgs]*Term{a, b}, n: 2})
}

// BoolIte returns if cond then a else b over booleans.
func (c *Ctx) BoolIte(cond, a, b *Term) *Term {
	mustBool("BoolIte", cond)
	mustBool("BoolIte", a)
	mustBool("BoolIte", b)
	if cond.Op == OpBoolConst {
		if cond.ConstBool() {
			return a
		}
		return b
	}
	if a == b {
		return a
	}
	return c.intern(&protoTerm{op: OpBoolIte, args: [maxTermArgs]*Term{cond, a, b}, n: 3})
}

// ---- bit-vector constructors ----

// BV returns the bit-vector constant v of the given width.
func (c *Ctx) BV(v uint64, width int) *Term {
	return c.BVBig(new(big.Int).SetUint64(v), width)
}

// BVBig returns the bit-vector constant v (mod 2^width) of the given width.
func (c *Ctx) BVBig(v *big.Int, width int) *Term {
	if width <= 0 {
		panic("smt: BV width must be positive")
	}
	if v.Sign() < 0 || v.BitLen() > width {
		v = normConst(v, width)
	}
	return c.intern(&protoTerm{op: OpBVConst, width: width, val: v})
}

// Var returns the bit-vector variable with the given name and width.
func (c *Ctx) Var(name string, width int) *Term {
	if width <= 0 {
		panic("smt: Var width must be positive")
	}
	return c.intern(&protoTerm{op: OpBVVar, width: width, name: name})
}

func mustBool(op string, t *Term) {
	if !t.IsBool() {
		panic("smt: " + op + " requires boolean operand, got width " +
			fmt.Sprint(t.Width))
	}
}

func mustSameWidth(op string, a, b *Term) {
	if a.IsBool() || b.IsBool() || a.Width != b.Width {
		panic(fmt.Sprintf("smt: %s requires equal-width bit-vectors (got %d, %d)",
			op, a.Width, b.Width))
	}
}

func (c *Ctx) bvBin(op Op, a, b *Term, fold func(x, y *big.Int, w int) *big.Int, commutative bool) *Term {
	mustSameWidth(opNames[op], a, b)
	if a.Op == OpBVConst && b.Op == OpBVConst {
		return c.BVBig(fold(a.Val, b.Val, a.Width), a.Width)
	}
	if commutative && structLess(b, a) {
		a, b = b, a
	}
	return c.intern(&protoTerm{op: op, width: a.Width, args: [maxTermArgs]*Term{a, b}, n: 2})
}

// BVNot returns the bitwise complement of a.
func (c *Ctx) BVNot(a *Term) *Term {
	if a.Op == OpBVConst {
		v := new(big.Int).Xor(a.Val, maskFor(a.Width))
		return c.BVBig(v, a.Width)
	}
	if a.Op == OpBVNot {
		return a.Args[0]
	}
	return c.intern(&protoTerm{op: OpBVNot, width: a.Width, args: [maxTermArgs]*Term{a}, n: 1})
}

// BVNeg returns the two's-complement negation of a.
func (c *Ctx) BVNeg(a *Term) *Term {
	if a.Op == OpBVConst {
		return c.BVBig(new(big.Int).Neg(a.Val), a.Width)
	}
	return c.intern(&protoTerm{op: OpBVNeg, width: a.Width, args: [maxTermArgs]*Term{a}, n: 1})
}

// BVAnd returns the bitwise AND of a and b.
func (c *Ctx) BVAnd(a, b *Term) *Term {
	if b.Op == OpBVConst && a.Op != OpBVConst {
		a, b = b, a
	}
	if a.Op == OpBVConst {
		if a.Val.Sign() == 0 {
			return a
		}
		if a.Val.Cmp(maskFor(a.Width)) == 0 {
			return b
		}
	}
	if a == b {
		return a
	}
	return c.bvBin(OpBVAnd, a, b, func(x, y *big.Int, w int) *big.Int {
		return new(big.Int).And(x, y)
	}, true)
}

// BVOr returns the bitwise OR of a and b.
func (c *Ctx) BVOr(a, b *Term) *Term {
	if b.Op == OpBVConst && a.Op != OpBVConst {
		a, b = b, a
	}
	if a.Op == OpBVConst {
		if a.Val.Sign() == 0 {
			return b
		}
		if a.Val.Cmp(maskFor(a.Width)) == 0 {
			return a
		}
	}
	if a == b {
		return a
	}
	return c.bvBin(OpBVOr, a, b, func(x, y *big.Int, w int) *big.Int {
		return new(big.Int).Or(x, y)
	}, true)
}

// BVXor returns the bitwise XOR of a and b.
func (c *Ctx) BVXor(a, b *Term) *Term {
	if a == b {
		return c.BV(0, a.Width)
	}
	return c.bvBin(OpBVXor, a, b, func(x, y *big.Int, w int) *big.Int {
		return new(big.Int).Xor(x, y)
	}, true)
}

// BVAdd returns a + b (mod 2^width).
func (c *Ctx) BVAdd(a, b *Term) *Term {
	if b.Op == OpBVConst && b.Val.Sign() == 0 {
		return a
	}
	if a.Op == OpBVConst && a.Val.Sign() == 0 {
		return b
	}
	return c.bvBin(OpBVAdd, a, b, func(x, y *big.Int, w int) *big.Int {
		return new(big.Int).Add(x, y)
	}, true)
}

// BVSub returns a - b (mod 2^width).
func (c *Ctx) BVSub(a, b *Term) *Term {
	if b.Op == OpBVConst && b.Val.Sign() == 0 {
		return a
	}
	if a == b {
		return c.BV(0, a.Width)
	}
	return c.bvBin(OpBVSub, a, b, func(x, y *big.Int, w int) *big.Int {
		return new(big.Int).Sub(x, y)
	}, false)
}

// BVMul returns a * b (mod 2^width).
func (c *Ctx) BVMul(a, b *Term) *Term {
	if b.Op == OpBVConst && a.Op != OpBVConst {
		a, b = b, a
	}
	if a.Op == OpBVConst {
		if a.Val.Sign() == 0 {
			return a
		}
		if a.Val.Cmp(big.NewInt(1)) == 0 {
			return b
		}
	}
	return c.bvBin(OpBVMul, a, b, func(x, y *big.Int, w int) *big.Int {
		return new(big.Int).Mul(x, y)
	}, true)
}

// BVShl returns a << b (filling with zeros).
func (c *Ctx) BVShl(a, b *Term) *Term {
	if b.Op == OpBVConst && b.Val.Sign() == 0 {
		return a
	}
	return c.bvBin(OpBVShl, a, b, func(x, y *big.Int, w int) *big.Int {
		if !y.IsUint64() || y.Uint64() >= uint64(w) {
			return big.NewInt(0)
		}
		return new(big.Int).Lsh(x, uint(y.Uint64()))
	}, false)
}

// BVLshr returns a >> b (logical).
func (c *Ctx) BVLshr(a, b *Term) *Term {
	if b.Op == OpBVConst && b.Val.Sign() == 0 {
		return a
	}
	return c.bvBin(OpBVLshr, a, b, func(x, y *big.Int, w int) *big.Int {
		if !y.IsUint64() || y.Uint64() >= uint64(w) {
			return big.NewInt(0)
		}
		return new(big.Int).Rsh(x, uint(y.Uint64()))
	}, false)
}

// Concat returns hi ++ lo, with hi occupying the upper bits.
func (c *Ctx) Concat(hi, lo *Term) *Term {
	if hi.IsBool() || lo.IsBool() {
		panic("smt: Concat requires bit-vectors")
	}
	if hi.Op == OpBVConst && lo.Op == OpBVConst {
		v := new(big.Int).Lsh(hi.Val, uint(lo.Width))
		v.Or(v, lo.Val)
		return c.BVBig(v, hi.Width+lo.Width)
	}
	return c.intern(&protoTerm{op: OpBVConcat, width: hi.Width + lo.Width, args: [maxTermArgs]*Term{hi, lo}, n: 2})
}

// Extract returns bits hi..lo (inclusive, 0-indexed from LSB) of a.
func (c *Ctx) Extract(a *Term, hi, lo int) *Term {
	if a.IsBool() {
		panic("smt: Extract requires a bit-vector")
	}
	if hi < lo || lo < 0 || hi >= a.Width {
		panic(fmt.Sprintf("smt: Extract [%d:%d] out of range for width %d", hi, lo, a.Width))
	}
	if hi == a.Width-1 && lo == 0 {
		return a
	}
	if a.Op == OpBVConst {
		v := new(big.Int).Rsh(a.Val, uint(lo))
		return c.BVBig(v, hi-lo+1)
	}
	if a.Op == OpBVExtract {
		return c.Extract(a.Args[0], a.Lo+hi, a.Lo+lo)
	}
	return c.intern(&protoTerm{op: OpBVExtract, width: hi - lo + 1, args: [maxTermArgs]*Term{a}, n: 1, hi: hi, lo: lo})
}

// ZeroExt widens a to the given width by prepending zero bits.
func (c *Ctx) ZeroExt(a *Term, width int) *Term {
	if width < a.Width {
		panic("smt: ZeroExt target narrower than operand")
	}
	if width == a.Width {
		return a
	}
	return c.Concat(c.BV(0, width-a.Width), a)
}

// Resize widens (zero-extends) or narrows (truncates) a to width.
func (c *Ctx) Resize(a *Term, width int) *Term {
	switch {
	case width == a.Width:
		return a
	case width > a.Width:
		return c.ZeroExt(a, width)
	default:
		return c.Extract(a, width-1, 0)
	}
}

// Ite returns if cond then a else b over equal-width bit-vectors.
func (c *Ctx) Ite(cond, a, b *Term) *Term {
	mustBool("Ite", cond)
	mustSameWidth("Ite", a, b)
	if cond.Op == OpBoolConst {
		if cond.ConstBool() {
			return a
		}
		return b
	}
	if a == b {
		return a
	}
	return c.intern(&protoTerm{op: OpBVIte, width: a.Width, args: [maxTermArgs]*Term{cond, a, b}, n: 3})
}

// Eq returns a == b over equal-width bit-vectors.
func (c *Ctx) Eq(a, b *Term) *Term {
	mustSameWidth("Eq", a, b)
	if a == b {
		return c.true_
	}
	if a.Op == OpBVConst && b.Op == OpBVConst {
		return c.Bool(a.Val.Cmp(b.Val) == 0)
	}
	if structLess(b, a) {
		a, b = b, a
	}
	return c.intern(&protoTerm{op: OpEq, args: [maxTermArgs]*Term{a, b}, n: 2})
}

// Neq returns a != b.
func (c *Ctx) Neq(a, b *Term) *Term { return c.Not(c.Eq(a, b)) }

// Ult returns a < b (unsigned).
func (c *Ctx) Ult(a, b *Term) *Term {
	mustSameWidth("Ult", a, b)
	if a == b {
		return c.false_
	}
	if a.Op == OpBVConst && b.Op == OpBVConst {
		return c.Bool(a.Val.Cmp(b.Val) < 0)
	}
	return c.intern(&protoTerm{op: OpUlt, args: [maxTermArgs]*Term{a, b}, n: 2})
}

// Ule returns a <= b (unsigned).
func (c *Ctx) Ule(a, b *Term) *Term {
	mustSameWidth("Ule", a, b)
	if a == b {
		return c.true_
	}
	if a.Op == OpBVConst && b.Op == OpBVConst {
		return c.Bool(a.Val.Cmp(b.Val) <= 0)
	}
	return c.intern(&protoTerm{op: OpUle, args: [maxTermArgs]*Term{a, b}, n: 2})
}

// Ugt returns a > b (unsigned).
func (c *Ctx) Ugt(a, b *Term) *Term { return c.Ult(b, a) }

// Uge returns a >= b (unsigned).
func (c *Ctx) Uge(a, b *Term) *Term { return c.Ule(b, a) }

// TermSize returns the number of distinct subterms of t (DAG size).
func TermSize(t *Term) int {
	seen := map[int]bool{}
	var walk func(*Term)
	walk = func(x *Term) {
		if seen[x.ID] {
			return
		}
		seen[x.ID] = true
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(t)
	return len(seen)
}
