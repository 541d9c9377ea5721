package gxx

import (
	"fmt"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

// TestBackendFigure9 reproduces the paper's Figure 9 divergence
// through the Semantics interface: on lookup(E, m) the dominance
// kernel resolves red at C while the g++ backend reports a (false)
// ambiguity between A and B — as an ordinary cross-backend table
// diff, no bespoke harness.
func TestBackendFigure9(t *testing.T) {
	g := hiergen.Figure9()
	dom := core.BuildSemTable(core.NewKernel(g), 0)
	be := NewBackend(g, nil, 0)
	gxxT := core.BuildSemTable(be, 0)

	e, _ := g.ID("E")
	c, _ := g.ID("C")
	a, _ := g.ID("A")
	bb, _ := g.ID("B")
	m, _ := g.MemberID("m")

	dr := dom.Lookup(e, m)
	if !dr.Found() || dr.Class() != c {
		t.Fatalf("dominance E::m = %s, want red at C", dr.Format(g))
	}
	gr := gxxT.Lookup(e, m)
	if !gr.Ambiguous() {
		t.Fatalf("gxx E::m = %s, want reported-ambiguous", gr.Format(g))
	}
	blue := gr.Blue()
	if len(blue) != 2 || blue[0].L != a || blue[1].L != bb {
		t.Fatalf("gxx E::m conflict = %v, want classes A and B", blue)
	}

	// Everywhere else on Figure 9 the two backends agree on the
	// resolved class; E::m is the lone divergence.
	diverged := 0
	for cid := 0; cid < g.NumClasses(); cid++ {
		for mid := 0; mid < g.NumMemberNames(); mid++ {
			d := dom.Lookup(chg.ClassID(cid), chg.MemberID(mid))
			x := gxxT.Lookup(chg.ClassID(cid), chg.MemberID(mid))
			if d.Kind() != x.Kind() || (d.Found() && x.Found() && d.Class() != x.Class()) {
				diverged++
			}
		}
	}
	if diverged != 1 {
		t.Errorf("Figure 9: %d divergent cells, want exactly 1 (E::m)", diverged)
	}
}

// TestBackendMatchesDirectLookup cross-checks the backend's packed
// results against the raw Lookup outcomes on a hierarchy with
// resolutions, ambiguities, and absent members, entry-at-a-time and
// through the batched row fill.
func TestBackendMatchesDirectLookup(t *testing.T) {
	g := hiergen.Figure1()
	be := NewBackend(g, nil, 0)
	tab := core.BuildSemTable(be, 0)
	for cid := 0; cid < g.NumClasses(); cid++ {
		for mid := 0; mid < g.NumMemberNames(); mid++ {
			c, m := chg.ClassID(cid), chg.MemberID(mid)
			want, err := LookupFresh(g, c, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			rr := be.Resolve(c, m, nil)
			rt := tab.Lookup(c, m)
			if !rr.Equal(rt) {
				t.Errorf("%s::%s: Resolve %s != table %s",
					g.Name(c), g.MemberName(m), rr.Format(g), rt.Format(g))
			}
			switch want.Outcome {
			case NotFound:
				if rr.Kind() != core.Undefined {
					t.Errorf("%s::%s: packed %s, scan not-found",
						g.Name(c), g.MemberName(m), rr.Format(g))
				}
			case Resolved:
				if !rr.Found() || rr.Class() != want.Class {
					t.Errorf("%s::%s: packed %s, scan resolved at %s",
						g.Name(c), g.MemberName(m), rr.Format(g), g.Name(want.Class))
				}
			case ReportedAmbiguous:
				if !rr.Ambiguous() {
					t.Errorf("%s::%s: packed %s, scan reported ambiguous",
						g.Name(c), g.MemberName(m), rr.Format(g))
				}
			}
		}
	}
}

// TestBackendOverLimit pins the FailKind path: a context class whose
// subobject graph exceeds the limit resolves to fail blaming that
// class, for every member, without panicking.
func TestBackendOverLimit(t *testing.T) {
	// DiamondChain stacks non-virtual diamonds; subobject count grows
	// exponentially with depth.
	g := hiergen.DiamondChain(12, chg.NonVirtual)
	be := NewBackend(g, nil, 64)
	leaves := g.Leaves()
	c := leaves[len(leaves)-1]
	var failed bool
	for mid := 0; mid < g.NumMemberNames(); mid++ {
		r := be.Resolve(c, chg.MemberID(mid), nil)
		if r.Failed() {
			failed = true
			if r.Def().L != c {
				t.Errorf("fail blames %s, want %s", g.Name(r.Def().L), g.Name(c))
			}
		}
	}
	if !failed {
		t.Fatal("no FailKind result on an over-limit class")
	}
	// The batched row fill agrees.
	tab := core.BuildSemTable(be, 0)
	for mid := 0; mid < g.NumMemberNames(); mid++ {
		m := chg.MemberID(mid)
		if !tab.Lookup(c, m).Equal(be.Resolve(c, m, nil)) {
			t.Errorf("table/backend disagree on %s::%s", g.Name(c), g.MemberName(m))
		}
	}
}

// TestBackendOverLimitNonMember pins the membership rule on an
// over-limit class: a member the class cannot see is Undefined, not
// Fail, exactly as in the table (which holds Members[C] only) and in
// the C3 backend — so a per-cell fill and a whole-table warm of an
// engine column agree on every cell.
func TestBackendOverLimitNonMember(t *testing.T) {
	b := chg.NewBuilder()
	prev := b.Class("D0")
	b.Method(prev, "m")
	for i := 1; i <= 12; i++ {
		l, r, j := b.Class(fmt.Sprintf("L%d", i)), b.Class(fmt.Sprintf("R%d", i)), b.Class(fmt.Sprintf("D%d", i))
		b.Base(l, prev, chg.NonVirtual)
		b.Base(r, prev, chg.NonVirtual)
		b.Base(j, l, chg.NonVirtual)
		b.Base(j, r, chg.NonVirtual)
		prev = j
	}
	b.Method(b.Class("Other"), "elsewhere")
	g := b.MustBuild()
	be := NewBackend(g, nil, 64)
	if r := be.Resolve(prev, g.MustMemberID("m"), nil); !r.Failed() {
		t.Fatalf("D12::m = %v, want fail", r)
	}
	if r := be.Resolve(prev, g.MustMemberID("elsewhere"), nil); r.Kind() != core.Undefined {
		t.Fatalf("D12::elsewhere = %v, want undefined", r)
	}
	tab := core.BuildSemTable(be, 0)
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			cid, mid := chg.ClassID(c), chg.MemberID(m)
			if want, got := tab.Lookup(cid, mid), be.Resolve(cid, mid, nil); !want.Equal(got) {
				t.Errorf("%s::%s: table %v, backend %v", g.Name(cid), g.MemberName(mid), want, got)
			}
		}
	}
}
