package sema

import (
	"math/rand"
	"strings"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

func TestUnknownMemberSuggestion(t *testing.T) {
	u := analyze(t, `
struct Base { void rdstate(); };
struct Stream : Base {};
Stream s;
void f() { s.rdstat(); }
`)
	diags := diagsOf(u, ErrUnknownMember)
	if len(diags) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
	if !strings.Contains(diags[0].Msg, "did you mean rdstate?") {
		t.Errorf("no suggestion in %q", diags[0].Msg)
	}
}

func TestUnknownMemberSuggestionUsesInheritedMembers(t *testing.T) {
	// The suggestion pool is Members[C], so a typo on a member
	// declared three levels up still gets a hit.
	u := analyze(t, `
struct A { void widget(); };
struct B : A {};
struct C : B {};
C c;
void f() { c.wigdet(); }
`)
	diags := diagsOf(u, ErrUnknownMember)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "did you mean widget?") {
		t.Errorf("diags: %v", u.Diags)
	}
}

func TestUnknownMemberNoSuggestionWhenImplausible(t *testing.T) {
	u := analyze(t, `
struct A { void m(); };
A a;
void f() { a.completely_unrelated(); }
`)
	diags := diagsOf(u, ErrUnknownMember)
	if len(diags) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
	if strings.Contains(diags[0].Msg, "did you mean") {
		t.Errorf("implausible suggestion in %q", diags[0].Msg)
	}
}

func TestUnknownClassSuggestion(t *testing.T) {
	u := analyze(t, `
struct Widget { static int count; };
void f() { Widgit::count; }
`)
	diags := diagsOf(u, ErrUnknownClass)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "did you mean Widget?") {
		t.Errorf("diags: %v", u.Diags)
	}
}

// The did-you-mean candidate pool is Members[C] read off the lines
// [6]–[9] membership sweep; on seeded random hierarchies it must be
// exactly the member list of the whole lookup table the suggestions
// used to be drawn from.
func TestVisibleMembersMatchTableMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(1997))
	for i := 0; i < 20; i++ {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: 5 + rng.Intn(60), MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 1 + rng.Intn(90), MemberProb: 0.15, StaticProb: 0.3, Seed: rng.Int63(),
		})
		var src strings.Builder
		if err := g.WriteSource(&src); err != nil {
			t.Fatal(err)
		}
		u := analyze(t, src.String())
		table := core.New(u.Graph, core.WithStaticRule()).BuildTable()
		for c := 0; c < u.Graph.NumClasses(); c++ {
			got, want := u.visibleMembers(chg.ClassID(c)), table.Members(chg.ClassID(c))
			if len(got) != len(want) {
				t.Fatalf("graph %d, class %s: %d visible members, table has %d", i, u.Graph.Name(chg.ClassID(c)), len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("graph %d, class %s: visible members %v, table %v", i, u.Graph.Name(chg.ClassID(c)), got, want)
				}
			}
		}
	}
}
