package incremental

import (
	"fmt"
	"testing"

	"cpplookup/internal/chg"
)

// fuzzOps decodes fuzz bytes into workspace edits. Each op is a kind
// byte followed by its operands; a missing operand byte reads as 0.
//
//	kind%3 == 0: AddClass   name, k, base×(k%4)   (virtual mask k>>2)
//	kind%3 == 1: AddMember  class, name
//	kind%3 == 2: RemoveMember class, name
//
// Class operands are signed bytes, so ids range over -128..127 and
// routinely fall outside the hierarchy. Class name byte 0 is the empty
// name and others repeat every 16; member name byte%4 == 0 is the
// empty name. Repeated bases and removals of undeclared members arise
// directly from the encoding.
type fuzzOps struct{ data []byte }

func (o *fuzzOps) next() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *fuzzOps) class() chg.ClassID { return chg.ClassID(int8(o.next())) }

func (o *fuzzOps) memberName() string { return [...]string{"", "m", "n", "p"}[o.next()%4] }

// FuzzWorkspaceEdits applies arbitrary edit sequences and checks the
// edit log after every op: a rejected op leaves the generation alone;
// an accepted op adds exactly one logged edit; a class add yields no
// cone, and a member edit at (X, m) yields exactly the cone
// {X} ∪ descendants(X) for m on the frozen graph.
func FuzzWorkspaceEdits(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// About 40 ops already exhaust 16 class names; the cap keeps
		// each run (a freeze per member edit) and minimization quick.
		if len(data) > 128 {
			data = data[:128]
		}
		w := New()
		ops := &fuzzOps{data: data}
		for len(ops.data) > 0 {
			prev := w.Generation()
			var want Edit
			var err error
			switch ops.next() % 3 {
			case 0:
				name := ""
				if b := ops.next(); b != 0 {
					name = fmt.Sprintf("K%d", b%16)
				}
				k := ops.next()
				var bases []BaseDecl
				for i := 0; i < int(k%4); i++ {
					bases = append(bases, BaseDecl{Class: ops.class(), Virtual: k>>(2+i)&1 == 1})
				}
				want.Kind = EditAddClass
				want.Class, err = w.AddClass(name, bases)
			case 1:
				want.Kind, want.Class = EditAddMember, ops.class()
				name := ops.memberName()
				err = w.AddMember(want.Class, chg.Member{Name: name, Kind: chg.Method})
				want.Member = w.memberIDs[name]
			case 2:
				want.Kind, want.Class = EditRemoveMember, ops.class()
				name := ops.memberName()
				err = w.RemoveMember(want.Class, name)
				want.Member = w.memberIDs[name]
			}
			if err != nil {
				if w.Generation() != prev {
					t.Fatalf("rejected %v (%v) moved the generation %d → %d", want.Kind, err, prev, w.Generation())
				}
				continue
			}
			if w.Generation() != prev+1 {
				t.Fatalf("accepted %v moved the generation %d → %d", want.Kind, prev, w.Generation())
			}
			edits, ok := w.EditsSince(prev)
			if !ok || len(edits) != 1 || edits[0].Kind != want.Kind || edits[0].Class != want.Class ||
				(want.Kind != EditAddClass && edits[0].Member != want.Member) {
				t.Fatalf("EditsSince after %+v = %+v, %v", want, edits, ok)
			}
			cones, ok := w.InvalidationConeSince(prev)
			if !ok {
				t.Fatalf("cone window after %+v unanswerable", want)
			}
			if want.Kind == EditAddClass {
				if len(cones) != 0 {
					t.Fatalf("class add gave cones %+v", cones)
				}
				continue
			}
			g, err := w.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if len(cones) != 1 || cones[0].Member != want.Member {
				t.Fatalf("member edit %+v gave cones %+v", want, cones)
			}
			if got, ref := fmt.Sprint(cones[0].Classes.Elems()), closureCone(g, want.Class); got != ref {
				t.Fatalf("cone of %+v = %v, closure %v", want, got, ref)
			}
		}
	})
}
