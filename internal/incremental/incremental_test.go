package incremental_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/incremental"
)

// These tests drive the workspace the way every client does: bound to
// an engine, republished by Sync, queried through the snapshot. They
// pin that the edit log's cones keep carried answers exact.

func method(name string) chg.Member { return chg.Member{Name: name, Kind: chg.Method} }

func bind(t *testing.T, w *incremental.Workspace) (*engine.WorkspaceBinding, *engine.Snapshot) {
	t.Helper()
	b, snap, err := engine.New().BindWorkspace("ws", w)
	if err != nil {
		t.Fatal(err)
	}
	return b, snap
}

// checkAgainstBatch compares every (class, member) entry the snapshot
// serves against a fresh core.New over the same frozen graph. Reading
// every entry also warms the snapshot, so the next Sync carries a full
// cache and the next check exercises the carried cells.
func checkAgainstBatch(t *testing.T, snap *engine.Snapshot, label string) {
	t.Helper()
	g := snap.Graph()
	a := core.New(g)
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			got := snap.Lookup(chg.ClassID(c), chg.MemberID(m))
			want := a.Lookup(chg.ClassID(c), chg.MemberID(m))
			if !got.Equal(want) {
				t.Fatalf("%s: (%s, %s): served %s vs batch %s", label,
					g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)), got.Format(g), want.Format(g))
			}
		}
	}
}

// syncChecked republishes the workspace and checks the new snapshot.
func syncChecked(t *testing.T, b *engine.WorkspaceBinding, label string) *engine.Snapshot {
	t.Helper()
	snap, err := b.Sync()
	if err != nil {
		t.Fatalf("%s: sync: %v", label, err)
	}
	checkAgainstBatch(t, snap, label)
	return snap
}

// Build Figure 2 incrementally, then edit it into Figure-1-like
// ambiguity and back.
func TestEditScriptFigure2(t *testing.T) {
	w := incremental.New()
	a, err := w.AddClass("A", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddMember(a, method("m")); err != nil {
		t.Fatal(err)
	}
	b, _ := w.AddClass("B", []incremental.BaseDecl{{Class: a}})
	c, _ := w.AddClass("C", []incremental.BaseDecl{{Class: b, Virtual: true}})
	d, _ := w.AddClass("D", []incremental.BaseDecl{{Class: b, Virtual: true}})
	if err := w.AddMember(d, method("m")); err != nil {
		t.Fatal(err)
	}
	w.AddClass("E", []incremental.BaseDecl{{Class: c}, {Class: d}})

	binding, snap := bind(t, w)
	if r := snap.LookupByName("E", "m"); r.Kind() != core.RedKind || r.Def().L != d {
		t.Fatalf("lookup(E, m) = %+v, want D::m", r)
	}
	checkAgainstBatch(t, snap, "after build")

	// Remove D::m: now A::m is the only definition → resolves to A.
	if err := w.RemoveMember(d, "m"); err != nil {
		t.Fatal(err)
	}
	snap = syncChecked(t, binding, "after removal")
	if r := snap.LookupByName("E", "m"); r.Kind() != core.RedKind || r.Def().L != a {
		t.Fatalf("after removal: %+v, want A::m", r)
	}

	// Add C::m too: C and D are siblings... C::m dominates A::m via
	// the shared virtual B; lookup resolves to C.
	if err := w.AddMember(c, method("m")); err != nil {
		t.Fatal(err)
	}
	snap = syncChecked(t, binding, "after adding C::m")
	if r := snap.LookupByName("E", "m"); r.Kind() != core.RedKind || r.Def().L != c {
		t.Fatalf("after adding C::m: %+v, want C::m", r)
	}
	// Re-add D::m: now C::m vs D::m is a real ambiguity.
	if err := w.AddMember(d, method("m")); err != nil {
		t.Fatal(err)
	}
	snap = syncChecked(t, binding, "final")
	if r := snap.LookupByName("E", "m"); r.Kind() != core.BlueKind {
		t.Fatalf("after re-adding D::m: %+v, want ambiguous", r)
	}
}

// An edit invalidates exactly the descendant cone for that member
// name; every other warm entry is carried.
func TestInvalidationCone(t *testing.T) {
	w := incremental.New()
	root, _ := w.AddClass("Root", nil)
	w.AddMember(root, method("m"))
	w.AddMember(root, method("n"))
	left, _ := w.AddClass("Left", []incremental.BaseDecl{{Class: root}})
	w.AddClass("Right", []incremental.BaseDecl{{Class: root}})
	leaf, _ := w.AddClass("Leaf", []incremental.BaseDecl{{Class: left}})

	b, snap := bind(t, w)
	checkAgainstBatch(t, snap, "warm") // fills all 8 entries
	// Override m in Left: (Left, m) and (Leaf, m) drop; Right and all
	// n entries survive.
	if err := w.AddMember(left, method("m")); err != nil {
		t.Fatal(err)
	}
	res, err := b.SyncDetail()
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := res.Snapshot.Graph().MemberID("m")
	if len(res.Cone) != 1 || res.Cone[0].Member != mid ||
		fmt.Sprint(res.Cone[0].Classes.Elems()) != fmt.Sprint([]int{int(left), int(leaf)}) {
		t.Fatalf("cone = %+v, want m over {Left, Leaf}", res.Cone)
	}
	if st := res.Snapshot.Carry(); st.Invalidated != 2 || st.Carried != 6 {
		t.Errorf("carry = %d carried / %d invalidated, want 6 / 2", st.Carried, st.Invalidated)
	}
	// And the recomputed answers are right.
	if r := res.Snapshot.LookupByName("Leaf", "m"); r.Kind() != core.RedKind || r.Def().L != left {
		t.Errorf("lookup(Leaf, m) after override = %+v", r)
	}
	checkAgainstBatch(t, res.Snapshot, "after override")
}

// Randomized edit scripts: after every edit the republished snapshot,
// seeded by carry-over from a fully warm predecessor, agrees with the
// batch algorithm on the frozen graph.
func TestRandomEditScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	memberPool := []string{"m0", "m1", "m2"}
	for script := 0; script < 15; script++ {
		w := incremental.New()
		b, _ := bind(t, w)
		var ids []chg.ClassID
		for step := 0; step < 25; step++ {
			switch {
			case len(ids) == 0 || rng.Float64() < 0.4:
				var bases []incremental.BaseDecl
				if len(ids) > 0 {
					n := rng.Intn(min(3, len(ids)) + 1)
					perm := rng.Perm(len(ids))
					for i := 0; i < n; i++ {
						bases = append(bases, incremental.BaseDecl{
							Class:   ids[perm[i]],
							Virtual: rng.Float64() < 0.4,
						})
					}
				}
				id, err := w.AddClass(fmt.Sprintf("K%d_%d", script, step), bases)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			case rng.Float64() < 0.7:
				c := ids[rng.Intn(len(ids))]
				name := memberPool[rng.Intn(len(memberPool))]
				// AddMember may fail on duplicates; ignore those.
				_ = w.AddMember(c, method(name))
			default:
				c := ids[rng.Intn(len(ids))]
				name := memberPool[rng.Intn(len(memberPool))]
				_ = w.RemoveMember(c, name)
			}
			syncChecked(t, b, fmt.Sprintf("script %d step %d", script, step))
		}
	}
}

func TestWorkspaceValidation(t *testing.T) {
	w := incremental.New()
	if _, err := w.AddClass("", nil); err == nil {
		t.Error("empty name should fail")
	}
	a, _ := w.AddClass("A", nil)
	if _, err := w.AddClass("A", nil); err == nil {
		t.Error("duplicate class should fail")
	}
	if _, err := w.AddClass("B", []incremental.BaseDecl{{Class: 99}}); err == nil {
		t.Error("unknown base should fail")
	}
	if _, err := w.AddClass("B", []incremental.BaseDecl{{Class: a}, {Class: a}}); err == nil {
		t.Error("repeated base should fail")
	}
	if err := w.AddMember(chg.ClassID(50), method("m")); err == nil {
		t.Error("invalid class in AddMember should fail")
	}
	if err := w.AddMember(a, chg.Member{}); err == nil {
		t.Error("empty member name should fail")
	}
	w.AddMember(a, method("m"))
	if err := w.AddMember(a, method("m")); err == nil {
		t.Error("duplicate member should fail")
	}
	if err := w.RemoveMember(a, "nope"); err == nil {
		t.Error("unknown member name should fail")
	}
	w.AddClass("B", nil)
	b, _ := w.ID("B")
	if err := w.RemoveMember(b, "m"); err == nil {
		t.Error("removing undeclared member should fail")
	}
	_, snap := bind(t, w)
	if r := snap.Lookup(chg.ClassID(77), 0); r.Kind() != core.Undefined {
		t.Error("invalid class lookup should be undefined")
	}
	if r := snap.Lookup(a, chg.MemberID(9)); r.Kind() != core.Undefined {
		t.Error("invalid member id lookup should be undefined")
	}
	if r := snap.LookupByName("A", "ghost"); r.Kind() != core.Undefined {
		t.Error("unknown member lookup should be undefined")
	}
	if id, ok := w.ID("A"); !ok || id != a {
		t.Error("ID lookup wrong")
	}
}

// A 10k-edit session with heavy payload churn must keep the engine's
// payload pool bounded: each Sync carries the warm cells, invalidated
// blue sets become garbage, and the carry chains to a fresh pool
// before that garbage outgrows the live payloads. Without compaction
// the pool would grow with the number of distinct blue sets ever
// produced (thousands here).
func TestPoolBoundedAcrossLongEditSession(t *testing.T) {
	w := incremental.New()
	const roots = 16
	var rs []chg.ClassID
	var decls []incremental.BaseDecl
	for i := 0; i < roots; i++ {
		r, err := w.AddClass(fmt.Sprintf("R%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
		decls = append(decls, incremental.BaseDecl{Class: r, Virtual: true})
	}
	if _, err := w.AddClass("Leaf", decls); err != nil {
		t.Fatal(err)
	}
	b, snap := bind(t, w)

	rng := rand.New(rand.NewSource(7))
	declared := make([]bool, roots)
	compactions, dropped, peak := 0, 0, 0
	for edit := 0; edit < 10000; edit++ {
		i := rng.Intn(roots)
		var err error
		if declared[i] {
			err = w.RemoveMember(rs[i], "m")
		} else {
			err = w.AddMember(rs[i], method("m"))
		}
		if err != nil {
			t.Fatal(err)
		}
		declared[i] = !declared[i]
		if snap, err = b.Sync(); err != nil {
			t.Fatal(err)
		}
		snap.LookupByName("Leaf", "m") // produce (and cache) a blue/red payload
		if st := snap.Carry(); st.PoolCompacted {
			compactions++
			dropped += st.PoolGarbage
		}
		peak = max(peak, snap.Pool().Len())
	}

	t.Logf("%d compactions dropped %d payloads; pool peaked at %d", compactions, dropped, peak)
	if compactions == 0 {
		t.Fatalf("no pool compaction happened in 10k edits (pool size %d)", snap.Pool().Len())
	}
	if total := snap.Pool().Len() + dropped; total < 1000 {
		t.Fatalf("session generated only %d distinct payloads; churn too low to test boundedness", total)
	}
	if peak > 1000 {
		t.Errorf("pool peaked at %d payloads over 10k edits (dropped %d, compactions %d); not bounded",
			peak, dropped, compactions)
	}
	checkAgainstBatch(t, snap, "after 10k-edit session")
}
