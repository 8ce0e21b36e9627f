package gcl

import (
	"fmt"

	"aquila/internal/smt"
)

// mapSubst is the closure-plus-map substitution Encoder.Subst replaced,
// kept as the reference: one map memo per call, one args slice per
// interior node, the same visiting and construction order.
func mapSubst(e *Encoder, t *smt.Term, store *Store) *smt.Term {
	memo := map[int]*smt.Term{}
	var walk func(x *smt.Term) *smt.Term
	walk = func(x *smt.Term) *smt.Term {
		if got, ok := memo[x.ID]; ok {
			return got
		}
		var out *smt.Term
		switch x.Op {
		case smt.OpBVVar, smt.OpBoolVar:
			out = store.Get(x)
		case smt.OpBVConst, smt.OpBoolConst:
			out = x
		default:
			args := make([]*smt.Term, len(x.Args))
			changed := false
			for i, a := range x.Args {
				args[i] = walk(a)
				if args[i] != a {
					changed = true
				}
			}
			if !changed {
				out = x
			} else {
				out = e.rebuild(x, args)
			}
		}
		memo[x.ID] = out
		return out
	}
	return walk(t)
}

// refEncoder is Encoder.encode with mapSubst at every substitution site.
// At each site it also runs Encoder.Subst (on a second encoder over the
// same context) after the reference and records a mismatch unless it
// returns the same pointer without creating a term.
type refEncoder struct {
	*Encoder
	check      *Encoder
	mismatches []string
}

func (r *refEncoder) subst(t *smt.Term, store *Store) *smt.Term {
	want := mapSubst(r.Encoder, t, store)
	n := r.ctx.NumTerms()
	got := r.check.Subst(t, store)
	if got != want {
		r.mismatches = append(r.mismatches, fmt.Sprintf("Subst(term %d) = term %d, reference %d", t.ID, got.ID, want.ID))
	} else if m := r.ctx.NumTerms(); m != n {
		r.mismatches = append(r.mismatches, fmt.Sprintf("Subst(term %d) created %d terms the reference had not", t.ID, m-n))
	}
	return want
}

// EncodeWithMapSubst encodes s over ctx like NewEncoder(ctx).Encode, with
// the reference substitution, and returns the differential's mismatches.
func EncodeWithMapSubst(ctx *smt.Ctx, s Stmt) (*Result, []string) {
	r := &refEncoder{Encoder: NewEncoder(ctx), check: NewEncoder(ctx)}
	st := NewStore()
	res := &Result{Store: st}
	res.Path = r.encode(s, st, ctx.True(), res)
	return res, r.mismatches
}

// encode is a copy of Encoder.encode that substitutes through r.subst.
func (r *refEncoder) encode(s Stmt, store *Store, path *smt.Term, res *Result) *smt.Term {
	c := r.ctx
	switch x := s.(type) {
	case nil, *Skip:
		return path
	case *Assign:
		store.Set(x.Var.Name, r.subst(x.Rhs, store))
		return path
	case *Havoc:
		var w int
		if !x.Var.IsBool() {
			w = x.Var.Width
		}
		store.Set(x.Var.Name, r.FreshVar("havoc$"+x.Var.Name, w))
		return path
	case *Assume:
		return c.And(path, r.subst(x.Cond, store))
	case *Assert:
		check := r.subst(x.Cond, store)
		res.Violations = append(res.Violations, &Violation{
			Label: x.Label,
			Cond:  c.And(path, c.Not(check)),
			Meta:  x.Meta,
			Reach: path,
			Check: check,
		})
		return path
	case *Seq:
		for _, st := range x.Stmts {
			path = r.encode(st, store, path, res)
		}
		return path
	case *If:
		cond := r.subst(x.Cond, store)
		thenStore := store.clone()
		elseStore := store.clone()
		thenPath := r.encode(x.Then, thenStore, c.And(path, cond), res)
		elsePath := path
		if x.Else != nil {
			elsePath = r.encode(x.Else, elseStore, c.And(path, c.Not(cond)), res)
		} else {
			elsePath = c.And(path, c.Not(cond))
		}
		r.merge(store, cond, thenStore, elseStore)
		return c.Or(thenPath, elsePath)
	case *Choice:
		b := r.FreshVar("choice", 0)
		aStore := store.clone()
		bStore := store.clone()
		aPath := r.encode(x.A, aStore, c.And(path, b), res)
		bPath := r.encode(x.B, bStore, c.And(path, c.Not(b)), res)
		r.merge(store, b, aStore, bStore)
		return c.Or(aPath, bPath)
	case *While:
		var unrolled Stmt = &Assume{Cond: c.Not(x.Cond)}
		for i := 0; i < x.Bound; i++ {
			unrolled = &If{Cond: x.Cond, Then: NewSeq(x.Body, unrolled), Else: &Skip{}}
		}
		return r.encode(unrolled, store, path, res)
	default:
		panic(fmt.Sprintf("gcl: encode: unknown statement %T", s))
	}
}
