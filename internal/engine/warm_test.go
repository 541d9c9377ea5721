package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

// warmTestGraphs is the WarmAll differential corpus: the batch corpus
// (every paper figure, sparse members, a random shape, a small Giant),
// a smaller Giant, the remaining fixture shapes and seeded randoms
// with virtual diamonds and static members, so the dominance column sees inline
// reds, blue sets, static coverage and tracked paths.
func warmTestGraphs() map[string]*chg.Graph {
	gs := batchTestGraphs()
	gs["small-giant"] = smallGiant()
	gs["chain"] = hiergen.Chain(12, true)
	gs["wideMI"] = hiergen.WideMI(8, true)
	gs["ladder"] = hiergen.AmbiguousLadder(5, 2)
	gs["realistic"] = hiergen.Realistic(3, 2)
	gs["diamondchain"] = hiergen.DiamondChain(6, chg.Virtual)
	for _, seed := range []int64{3, 19, 77} {
		gs[fmt.Sprintf("random-static-%d", seed)] = hiergen.Random(hiergen.RandomConfig{
			Classes: 60, MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 70, MemberProb: 0.08, StaticProb: 0.3, Seed: seed,
		})
	}
	return gs
}

// extraSems is the backend set every WarmAll test serves beside
// dominance.
var extraSems = core.WithSemantics(core.SemC3, core.SemGxx)

// assertWarmMatchesLazy pins every stored cell of every column of a
// warmed snapshot against a fresh snapshot of the same graph and
// options filled one cell at a time by LookupSem. The warmed cells are
// read as stored, not through LookupSem, so a cell WarmAll left
// unfilled fails rather than filling lazily.
func assertWarmMatchesLazy(t *testing.T, label string, s *Snapshot, opts []core.Option) {
	t.Helper()
	if s.pool != s.k.Pool() {
		t.Fatalf("%s: snapshot pool differs from its kernel's pool", label)
	}
	g := s.Graph()
	ref := NewSnapshot(g, opts...)
	numM := g.NumMemberNames()
	for _, col := range s.CopyColumns() {
		for i, w := range col.Cells {
			c, m := chg.ClassID(i/numM), chg.MemberID(i%numM)
			if w == 0 {
				t.Fatalf("%s: %s: (%s, %s) left unfilled", label, col.ID, g.Name(c), g.MemberName(m))
			}
			want, ok := ref.LookupSem(col.ID, c, m)
			if !ok {
				t.Fatalf("%s: reference does not serve %s", label, col.ID)
			}
			if got := s.pool.View(core.Cell(w)); !got.Equal(want) {
				t.Fatalf("%s: %s: (%s, %s): WarmAll %v, per-cell lookup %v",
					label, col.ID, g.Name(c), g.MemberName(m), got.Format(g), want.Format(g))
			}
		}
	}
}

func withOpts(opts []core.Option, more ...core.Option) []core.Option {
	return append(append([]core.Option(nil), opts...), more...)
}

// smallGiant is a Giant with every Giant feature — fat interfaces,
// diamond towers, override chains, Zipf member skew — whose towers are
// mostly virtual, which keeps the gxx subobject graphs, and so the
// per-cell gxx references, cheap enough for -race.
func smallGiant() *chg.Graph {
	return hiergen.Giant(hiergen.GiantConfig{
		Classes: 200, MemberNames: 48, Interfaces: 4, FatWidth: 10,
		TowerHeight: 2, ChainLen: 4, Decls: 260, VirtualProb: 0.6, Seed: 5,
	})
}

// WarmAll's block walk and scatter must leave every column exactly as
// per-cell lazy filling would, under dominance, C3 and gxx and every
// option set. The options shape only the dominance kernel, so the C3
// and gxx columns ride along with the richest set alone.
func TestWarmAllMatchesPerCellLookup(t *testing.T) {
	for gname, g := range warmTestGraphs() {
		for oname, opts := range carryOptSets() {
			if oname == "static+paths" {
				opts = withOpts(opts, extraSems)
			}
			s := NewSnapshot(g, opts...)
			s.WarmAll()
			assertWarmMatchesLazy(t, gname+"/"+oname, s, opts)
		}
	}
}

// WarmAll on a partly warm snapshot fills only the gaps: the cells a
// lazy Lookup already published keep their words.
func TestWarmAllKeepsFilledCells(t *testing.T) {
	g := hiergen.Figure9()
	s := NewSnapshot(g, extraSems)
	s.Lookup(g.MustID("E"), g.MustMemberID("m"))
	before := s.CopyColumns()
	s.WarmAll()
	after := s.CopyColumns()
	for i := range before {
		for j, w := range before[i].Cells {
			if w != 0 && after[i].Cells[j] != w {
				t.Fatalf("%s cell %d: %#x rewritten as %#x", before[i].ID, j, w, after[i].Cells[j])
			}
		}
	}
	assertWarmMatchesLazy(t, "figure9", s, []core.Option{extraSems})
}

// A carried snapshot — including one whose pool the carry compacted
// into a fresh pool — warms over its own pool and agrees with a cold
// per-cell fill.
func TestWarmAllOnCarriedSnapshot(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			if compact {
				oldMin, oldPolicy := carryCompactMinGarbage, carryShouldCompact
				carryCompactMinGarbage = 1
				carryShouldCompact = func(live, garbage int) bool { return garbage > 0 }
				defer func() { carryCompactMinGarbage, carryShouldCompact = oldMin, oldPolicy }()
			}
			opts := []core.Option{core.WithStaticRule(), core.WithTrackPaths(), extraSems}
			rng := rand.New(rand.NewSource(2024))
			w, ids := randomEditableWorkspace(rng, 30)
			names := []string{"m0", "m1", "m2", "m3", "m4"}
			for i := 0; i < 20; i++ {
				randomMemberEdit(rng, w, ids, names)
			}
			b, snap, err := New().BindWorkspace("h", w, opts...)
			if err != nil {
				t.Fatal(err)
			}
			compacted := false
			for round := 0; round < 4; round++ {
				snap.WarmAll()
				for k := 0; k < 3; k++ {
					randomMemberEdit(rng, w, ids, names)
				}
				if snap, err = b.Sync(); err != nil {
					t.Fatal(err)
				}
				if snap.Carry().Carried == 0 {
					t.Fatalf("round %d: nothing carried", round)
				}
				compacted = compacted || snap.Carry().PoolCompacted
				snap.WarmAll()
				assertWarmMatchesLazy(t, fmt.Sprintf("round %d", round), snap, opts)
			}
			if compact && !compacted {
				t.Fatal("forced-compaction mode never compacted the pool")
			}
		})
	}
}

// A snapshot assembled around image columns (NewSnapshotFromParts, the
// image loader's constructor) holding a partial warm state warms over
// the adopted pool.
func TestWarmAllOnSnapshotFromParts(t *testing.T) {
	g := smallGiant()
	opts := []core.Option{core.WithStaticRule(), core.WithTrackPaths(), extraSems}
	src := NewSnapshot(g, opts...)
	for c := 0; c < g.NumClasses(); c += 3 {
		for m := 0; m < g.NumMemberNames(); m += 2 {
			for _, id := range src.Semantics() {
				src.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
			}
		}
	}
	s, err := NewSnapshotFromParts(g, src.Pool(), src.CopyColumns(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	s.WarmAll()
	assertWarmMatchesLazy(t, "from-parts", s, opts)
}

// Two WarmAll goroutines and several Lookup/LookupBatch goroutines
// share one cold snapshot. Every store is a compare-and-swap from
// zero of a word that depends only on its cell, so the columns must
// end up word for word what a serial WarmAll over the same pool
// produces — and that serial pass must find every payload already
// interned. Run under -race.
func TestWarmAllConcurrentWithLookups(t *testing.T) {
	for gname, g := range map[string]*chg.Graph{
		"random": batchTestGraphs()["random"],
		"giant":  smallGiant(),
	} {
		t.Run(gname, func(t *testing.T) {
			opts := []core.Option{core.WithStaticRule(), core.WithTrackPaths(), extraSems}
			s := NewSnapshot(g, opts...)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.WarmAll()
				}()
			}
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					qs := batchTestQueries(g, rng)
					var out []core.Result
					for _, id := range s.Semantics() {
						if i%2 == 0 {
							out, _ = s.LookupBatchSem(id, qs, out[:0])
							continue
						}
						for _, q := range qs {
							s.LookupSem(id, q.Class, q.Member)
						}
					}
				}(i)
			}
			wg.Wait()

			interned := s.Pool().Len()
			ref := NewSnapshot(g, withOpts(opts, core.WithPool(s.Pool()))...)
			ref.WarmAll()
			if got := s.Pool().Len(); got != interned {
				t.Fatalf("serial warm interned %d new payloads", got-interned)
			}
			want, got := ref.CopyColumns(), s.CopyColumns()
			for i := range want {
				for j := range want[i].Cells {
					if want[i].Cells[j] != got[i].Cells[j] {
						t.Fatalf("%s cell %d: concurrent %#x, serial %#x",
							want[i].ID, j, got[i].Cells[j], want[i].Cells[j])
					}
				}
			}
		})
	}
}
