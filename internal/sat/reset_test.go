package sat

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// resetExempt names the Solver fields stateDiff does not compare, with
// the reason. wslab is an allocator, not state: Reset keeps it as it is
// (rewinding it would alias the watch-list backings it handed out), and
// which chunk a list is carved from never changes what the list holds.
var resetExempt = map[string]string{
	"wslab": "watcher slab allocator; list contents are compared via watches",
}

// stateDiff lists the Solver fields whose observable state differs
// between a and b: slice lengths and contents (capacity ignored, nil
// equal to empty), every scalar and array, pointers by identity and funcs
// by nil-ness. Fields in resetExempt are skipped.
func stateDiff(a, b *Solver) []string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	var out []string
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if _, ok := resetExempt[name]; ok {
			continue
		}
		if !sameValue(va.Field(i), vb.Field(i)) {
			out = append(out, name)
		}
	}
	return out
}

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		return a.Pointer() == b.Pointer()
	case reflect.Func:
		return a.IsNil() == b.IsNil()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	default:
		panic(fmt.Sprintf("stateDiff: unhandled kind %v", a.Kind()))
	}
}

// fillHard loads a satisfiable random 3-SAT instance near the phase
// transition that takes enough conflicts (~700) to restart, reduce the
// learnt database and compact the arena under a small learnt cap.
func fillHard(s *Solver) {
	rng := rand.New(rand.NewSource(5))
	const n = 120
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, n, 492, 3) {
		s.AddClause(cl...)
	}
}

// TestResetEqualsNew pins "Reset ≡ New": a solver dirtied by real work —
// learnt clauses, restarts, database reductions, an arena compaction, a
// failed-assumption conflict, a cancelled solve, a level-0 contradiction,
// with budget, cancel token and progress hook installed — must, after
// Reset, match New() in every field. It then solves the same instance on
// the reset solver and on a new one and requires identical state again,
// so truncated watch lists and other kept backings leak nothing.
//
// Before the reset every field must differ from New() except those in
// cleanAfterWork. A field added to Solver is therefore noticed here:
// either this scenario dirties it, and the comparison proves Reset
// restores it, or it is listed below with the reason it stays clean.
func TestResetEqualsNew(t *testing.T) {
	cleanAfterWork := map[string]string{
		"trailLim":    "every Solve ends by backtracking to level 0",
		"conflictSet": "every Solve clears it; the scenario ends on a cancelled one",
	}
	s := New()
	// A pre-sized arena: any compaction replaces it with a right-sized
	// one, so a changed capacity proves garbageCollect ran.
	const arenaCap = 1 << 20
	s.ca.data = make([]Lit, 0, arenaCap)
	var tok atomic.Bool
	var beats int
	s.SetCancel(&tok)
	s.SetBudget(1 << 30)
	s.SetLearntCap(30)
	s.SetProgress(16, func(Progress) { beats++ })
	fillHard(s)
	if st := s.Solve(MkLit(0, false)); st != Sat {
		t.Fatalf("hard instance: %v, want Sat", st)
	}
	if s.Restarts == 0 || s.Deleted == 0 || s.Learnt == 0 || beats == 0 {
		t.Fatalf("scenario too easy: restarts %d, deleted %d, learnt %d, heartbeats %d",
			s.Restarts, s.Deleted, s.Learnt, beats)
	}
	if cap(s.ca.data) == arenaCap {
		t.Fatal("scenario never compacted the clause arena")
	}
	if st := s.Solve(MkLit(1, false), MkLit(1, true)); st != Unsat || len(s.conflictSet) == 0 {
		t.Fatalf("contradictory assumptions: %v with conflict %v, want Unsat with a conflict", st, s.conflictSet)
	}
	tok.Store(true)
	if st := s.Solve(MkLit(2, false)); st != Unknown || !s.Canceled() {
		t.Fatalf("cancelled solve: %v, canceled %v", st, s.Canceled())
	}
	// Level-0 contradiction: p forces q and ¬q, so adding p sets ok false.
	p, q := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(p, true), MkLit(q, false))
	s.AddClause(MkLit(p, true), MkLit(q, true))
	if s.AddClause(MkLit(p, false)) || s.Okay() {
		t.Fatal("contradicting unit left the solver consistent")
	}

	fresh := New()
	dirty := map[string]bool{}
	for _, f := range stateDiff(s, fresh) {
		dirty[f] = true
	}
	for i := 0; i < reflect.TypeOf(*s).NumField(); i++ {
		name := reflect.TypeOf(*s).Field(i).Name
		if _, ok := resetExempt[name]; ok {
			continue
		}
		if _, clean := cleanAfterWork[name]; !dirty[name] && !clean {
			t.Errorf("field %s equals New() after the scenario: dirty it here or list it in cleanAfterWork", name)
		}
	}

	s.Reset()
	if d := stateDiff(s, fresh); len(d) > 0 {
		t.Fatalf("reset solver differs from New() in %v", d)
	}

	// Same work on both: a reset solver must follow the new one exactly.
	for _, x := range []*Solver{s, fresh} {
		x.SetLearntCap(30)
		x.SetProgress(16, func(Progress) {})
		fillHard(x)
	}
	sa, sb := s.Solve(MkLit(2, true)), fresh.Solve(MkLit(2, true))
	if sa != sb {
		t.Fatalf("reset solver: %v, new solver: %v", sa, sb)
	}
	if d := stateDiff(s, fresh); len(d) > 0 {
		t.Fatalf("after the same solve, reset solver differs from a new one in %v", d)
	}
}
