package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// buildScripted defines a deterministic random hierarchy of the given
// size in a fresh workspace.
func buildScripted(seed int64, classes int) (*Workspace, []chg.ClassID) {
	rng := rand.New(rand.NewSource(seed))
	w := New()
	var ids []chg.ClassID
	for i := 0; i < classes; i++ {
		var bases []BaseDecl
		if len(ids) > 0 {
			n := rng.Intn(min(3, len(ids)) + 1)
			perm := rng.Perm(len(ids))
			for j := 0; j < n; j++ {
				bases = append(bases, BaseDecl{Class: ids[perm[j]], Virtual: rng.Float64() < 0.3})
			}
		}
		id, err := w.AddClass(fmt.Sprintf("C%d", i), bases)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	return w, ids
}

// toggle adds name to c if c does not declare it, else removes it.
func toggle(t *testing.T, w *Workspace, c chg.ClassID, name string) {
	t.Helper()
	var err error
	if w.DeclaresName(c, name) {
		err = w.RemoveMember(c, name)
	} else {
		err = w.AddMember(c, chg.Member{Name: name, Kind: chg.Method})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// closureCone is the reference cone of edits at seeds: seeds ∪ their
// strict descendants, read off the frozen graph's closure.
func closureCone(g *chg.Graph, seeds ...chg.ClassID) string {
	s := bitset.New(g.NumClasses())
	for _, c := range seeds {
		s.Add(int(c))
		s.UnionWith(g.Descendants(c))
	}
	return fmt.Sprint(s.Elems())
}

// The derived-list BFS must agree with the closure the frozen graph
// computes from scratch, for every class of random hierarchies.
func TestDescendantSetsMatchFrozenClosure(t *testing.T) {
	for script := int64(0); script < 10; script++ {
		w, ids := buildScripted(42+script, 40)
		g, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range ids {
			s := bitset.New(len(w.names))
			w.coneFrom(s, []chg.ClassID{c})
			if got, want := fmt.Sprint(s.Elems()), closureCone(g, c); got != want {
				t.Fatalf("script %d: cone(%s): BFS %v vs closure %v", script, g.Name(c), got, want)
			}
		}
	}
}

// Every single member edit at (X, m) must yield exactly one cone, for
// m, equal to {X} ∪ descendants(X) on the frozen graph.
func TestLazyConesMatchEager(t *testing.T) {
	names := []string{"m0", "m1", "m2", "m3"}
	for _, seed := range []int64{11, 12, 13} {
		w, ids := buildScripted(seed, 50)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			c, name := ids[rng.Intn(len(ids))], names[rng.Intn(len(names))]
			prev := w.Generation()
			toggle(t, w, c, name)
			g, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			cones, ok := w.InvalidationConeSince(prev)
			if !ok || len(cones) != 1 || cones[0].Member != w.memberIDs[name] {
				t.Fatalf("seed %d edit %d: cones = %v, ok = %v; want one cone for %s", seed, i, cones, ok, name)
			}
			if got, want := fmt.Sprint(cones[0].Classes.Elems()), closureCone(g, c); got != want {
				t.Fatalf("seed %d edit %d: cone(%s, %s) = %v, closure %v", seed, i, g.Name(c), name, got, want)
			}
		}
	}
}

// A window of many edits must give, per member, the union of the
// closure cones of every edited class — including members edited many
// times in the window.
func TestInvalidationConeSinceLazyMatchesEager(t *testing.T) {
	w, ids := buildScripted(77, 40)
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c"}
	since := w.Generation()
	seeds := map[string][]chg.ClassID{}
	for i := 0; i < 60; i++ {
		c, name := ids[rng.Intn(len(ids))], names[rng.Intn(len(names))]
		toggle(t, w, c, name)
		seeds[name] = append(seeds[name], c)
	}
	g, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cones, ok := w.InvalidationConeSince(since)
	if !ok || len(cones) != len(seeds) {
		t.Fatalf("cones = %d, ok = %v; want %d member cones", len(cones), ok, len(seeds))
	}
	for i, mc := range cones {
		if i > 0 && cones[i-1].Member >= mc.Member {
			t.Fatalf("cones not sorted by member: %d then %d", cones[i-1].Member, mc.Member)
		}
		name := w.memberNames[mc.Member]
		if got, want := fmt.Sprint(mc.Classes.Elems()), closureCone(g, seeds[name]...); got != want {
			t.Fatalf("cone for %s: %v, closure %v", name, got, want)
		}
	}
}

func TestInvalidationConeSince(t *testing.T) {
	w := New()
	root, _ := w.AddClass("Root", nil)
	left, _ := w.AddClass("Left", []BaseDecl{{Class: root}})
	right, _ := w.AddClass("Right", []BaseDecl{{Class: root}})
	leaf, _ := w.AddClass("Leaf", []BaseDecl{{Class: left}})

	since := w.Generation()

	// A window with no edits: empty cone, ok.
	cones, ok := w.InvalidationConeSince(since)
	if !ok || len(cones) != 0 {
		t.Fatalf("empty window: got %v, %v", cones, ok)
	}
	// A future generation is unanswerable.
	if _, ok := w.InvalidationConeSince(since + 1); ok {
		t.Fatal("future generation should not be answerable")
	}

	// Class-only edits invalidate nothing.
	iso, _ := w.AddClass("Iso", nil)
	if cones, ok = w.InvalidationConeSince(since); !ok || len(cones) != 0 {
		t.Fatalf("class-only window: got %v, %v", cones, ok)
	}

	// Member edits produce per-member cones: edited class ∪ descendants.
	if err := w.AddMember(left, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddMember(right, chg.Member{Name: "n", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveMember(left, "m"); err != nil {
		t.Fatal(err)
	}
	cones, ok = w.InvalidationConeSince(since)
	if !ok || len(cones) != 2 {
		t.Fatalf("cones = %v, ok = %v; want 2 member cones", cones, ok)
	}
	mid, nid := w.memberIDs["m"], w.memberIDs["n"]
	byMember := map[chg.MemberID][]int{}
	for _, c := range cones {
		byMember[c.Member] = c.Classes.Elems()
	}
	wantM := []int{int(left), int(leaf)}
	wantN := []int{int(right)}
	if got := byMember[mid]; fmt.Sprint(got) != fmt.Sprint(wantM) {
		t.Errorf("cone for m = %v, want %v", got, wantM)
	}
	if got := byMember[nid]; fmt.Sprint(got) != fmt.Sprint(wantN) {
		t.Errorf("cone for n = %v, want %v", got, wantN)
	}
	_ = iso

	// Once the edit log is trimmed past the window, the cone is
	// unanswerable and callers must fall back to full invalidation.
	for i := 0; i <= maxEditLog; i++ {
		if err := w.AddMember(root, chg.Member{Name: "t", Kind: chg.Method}); err != nil {
			t.Fatal(err)
		}
		if err := w.RemoveMember(root, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := w.InvalidationConeSince(since); ok {
		t.Error("trimmed log should refuse the old window")
	}
	// A recent window still works.
	recent := w.Generation()
	if err := w.AddMember(root, chg.Member{Name: "t", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if cones, ok = w.InvalidationConeSince(recent); !ok || len(cones) != 1 {
		t.Errorf("recent window after trim: got %v, %v", cones, ok)
	}
}

func TestEditsSinceAndDeclaresName(t *testing.T) {
	w := New()
	root, _ := w.AddClass("Root", nil)
	left, _ := w.AddClass("Left", []BaseDecl{{Class: root}})

	since := w.Generation()
	if edits, ok := w.EditsSince(since); !ok || len(edits) != 0 {
		t.Fatalf("empty window: got %v, %v", edits, ok)
	}
	if _, ok := w.EditsSince(since + 1); ok {
		t.Fatal("future generation should not be answerable")
	}

	iso, _ := w.AddClass("Iso", nil)
	if err := w.AddMember(left, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveMember(left, "m"); err != nil {
		t.Fatal(err)
	}
	edits, ok := w.EditsSince(since)
	if !ok || len(edits) != 3 {
		t.Fatalf("edits = %v, ok = %v; want 3 typed edits", edits, ok)
	}
	mid := w.memberIDs["m"]
	want := []Edit{
		{Kind: EditAddClass, Class: iso},
		{Kind: EditAddMember, Class: left, Member: mid},
		{Kind: EditRemoveMember, Class: left, Member: mid},
	}
	for i, e := range edits {
		if e.Kind != want[i].Kind || e.Class != want[i].Class || e.Member != want[i].Member {
			t.Errorf("edit %d = {%v %d %d}, want {%v %d %d}",
				i, e.Kind, e.Class, e.Member, want[i].Kind, want[i].Class, want[i].Member)
		}
	}
	// Later edits fall outside an advanced window.
	mid2 := w.Generation()
	if err := w.AddMember(root, chg.Member{Name: "n", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if edits, ok = w.EditsSince(mid2); !ok || len(edits) != 1 || edits[0].Kind != EditAddMember {
		t.Fatalf("recent window: got %v, %v", edits, ok)
	}

	// DeclaresName tracks direct declarations only.
	if !w.DeclaresName(root, "n") {
		t.Error("Root should declare n")
	}
	if w.DeclaresName(left, "n") {
		t.Error("Left inherits n but does not declare it")
	}
	if w.DeclaresName(left, "m") {
		t.Error("m was removed from Left")
	}
	if w.DeclaresName(chg.ClassID(99), "n") {
		t.Error("invalid class should not declare anything")
	}
	if w.DeclaresName(root, "never-interned") {
		t.Error("unknown member name should not be declared")
	}

	// Trimming past the window makes EditsSince unanswerable too.
	for i := 0; i <= maxEditLog; i++ {
		if err := w.AddMember(root, chg.Member{Name: "t", Kind: chg.Method}); err != nil {
			t.Fatal(err)
		}
		if err := w.RemoveMember(root, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := w.EditsSince(since); ok {
		t.Error("trimmed log should refuse the old window")
	}
}
