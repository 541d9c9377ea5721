package core

import (
	"testing"

	"cpplookup/internal/chg"
)

// fillAllBlocks runs the batched build's serial block walk with one
// scratch and returns the scratch, so a test can read its memo
// counters.
func fillAllBlocks(k *Kernel) (*Table, *blockScratch) {
	g := k.g
	n := g.NumClasses()
	t := &Table{g: g, pool: k.pool, results: make([][]Cell, n)}
	members, mm, decl := memberUniverse(g)
	t.members = members
	for c := range t.results {
		t.results[c] = make([]Cell, len(members[c]))
	}
	sc := newBlockScratch(n)
	for b := 0; b < (g.NumMemberNames()+blockBits-1)/blockBits; b++ {
		k.fillBlock(t, mm, decl, b, sc, 0)
	}
	return t, sc
}

// On a paths-tracking Giant build most pooled cells are a sole base's
// tracked path extended by one class, so the extension memo must hit;
// a build with no hit means the fast path has silently died. The
// table it produced must still equal the per-cell reference.
func TestExtensionMemoHitsOnGiant(t *testing.T) {
	g := memoShapes()["giant"]
	got, sc := fillAllBlocks(NewKernel(g, WithStaticRule(), WithTrackPaths()))
	t.Logf("memo: %d hits", sc.memoHits)
	if sc.memoHits == 0 {
		t.Fatal("extension memo never hit on a paths-tracking Giant build")
	}
	want := NewKernel(g, WithStaticRule(), WithTrackPaths()).BuildTable()
	cellsEqual(t, g, want, got, "memoised")
}

// Two members that reach class C through different virtual bases with
// the same pooled cell — here one blue set {(Ω, Ω)}, interned once —
// extend to different results ({(Ω, X1)} and {(Ω, X2)}), so the memo
// must tell the bases apart.
func TestExtensionMemoKeysOnBase(t *testing.T) {
	b := chg.NewBuilder()
	x := [2]chg.ClassID{b.Class("X1"), b.Class("X2")}
	for i, m := range []string{"m1", "m2"} {
		p, q := b.Class("P"+m), b.Class("Q"+m)
		b.Method(p, m)
		b.Method(q, m)
		b.Base(x[i], p, chg.NonVirtual)
		b.Base(x[i], q, chg.NonVirtual)
	}
	c := b.Class("C")
	b.Base(c, x[0], chg.Virtual)
	b.Base(c, x[1], chg.Virtual)
	g := b.MustBuild()

	got, _ := fillAllBlocks(NewKernel(g))
	want := NewKernel(g).BuildTable()
	cellsEqual(t, g, want, got, "two-base")
	for i, m := range []string{"m1", "m2"} {
		r := got.LookupByName("C", m)
		if r.Kind() != BlueKind || len(r.Blue()) != 1 || r.Blue()[0].V != x[i] {
			t.Fatalf("C::%s = %s, want blue through %s", m, r.Format(g), g.Name(x[i]))
		}
	}
}
