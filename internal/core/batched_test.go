package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/paths"
)

// cellsEqual pins two tables cell for cell with the full payload
// equivalence (Result.Equal): kind, def, static coverage, tracked
// path, and blue set must all match.
func cellsEqual(t *testing.T, g *chg.Graph, want, got *Table, label string) {
	t.Helper()
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			rw := want.Lookup(chg.ClassID(c), chg.MemberID(m))
			rg := got.Lookup(chg.ClassID(c), chg.MemberID(m))
			if !rw.Equal(rg) {
				t.Fatalf("%s: tables differ at (%s, %s): %s vs %s", label,
					g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)),
					rw.Format(g), rg.Format(g))
			}
		}
	}
}

// The batched build must be cell-for-cell identical to BuildTable and
// to the unpruned member-major baseline on randomized hierarchies,
// under every option combination and worker count.
func TestBatchedMatchesBuildTableOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	optCombos := [][]Option{
		nil,
		{WithStaticRule()},
		{WithTrackPaths()},
		{WithStaticRule(), WithTrackPaths()},
	}
	for i := 0; i < 20; i++ {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: 5 + rng.Intn(50), MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 1 + rng.Intn(12), MemberProb: 0.3,
			StaticProb: 0.3, Seed: rng.Int63(),
		})
		for oi, opts := range optCombos {
			want := NewKernel(g, opts...).BuildTable()
			unpruned := NewKernel(g, opts...).BuildTableUnpruned()
			cellsEqual(t, g, want, unpruned, "unpruned")
			for _, workers := range []int{0, 1, 2, 7} {
				got := NewKernel(g, opts...).BuildTableBatched(workers)
				cellsEqual(t, g, want, got, "batched")
				_ = oi
			}
		}
	}
}

func TestBatchedOnFigures(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *chg.Graph
	}{
		{"fig1", hiergen.Figure1()},
		{"fig2", hiergen.Figure2()},
		{"fig3", hiergen.Figure3()},
		{"fig9", hiergen.Figure9()},
		{"chain", hiergen.Chain(12, true)},
		{"wideMI", hiergen.WideMI(8, true)},
		{"ladder", hiergen.AmbiguousLadder(5, 2)},
		{"realistic", hiergen.Realistic(3, 2)},
	} {
		want := NewKernel(tc.g, WithStaticRule(), WithTrackPaths()).BuildTable()
		got := NewKernel(tc.g, WithStaticRule(), WithTrackPaths()).BuildTableBatched(3)
		cellsEqual(t, tc.g, want, got, tc.name)
	}
}

// memoShapes are the hierarchies where the block walk's extension memo
// does most of its work: a Giant (deep override chains under fat
// interfaces and virtual diamond towers) and seeded randoms dense in
// virtual diamonds with static members, built under the static rule
// with tracked paths so that nearly every sole-base entry extends a
// pooled cell.
func memoShapes() map[string]*chg.Graph {
	cfg := hiergen.GiantDefaults(1200)
	cfg.MemberNames = 150
	gs := map[string]*chg.Graph{"giant": hiergen.Giant(cfg)}
	for _, seed := range []int64{5, 61, 404} {
		gs[fmt.Sprintf("vdiamond-%d", seed)] = hiergen.Random(hiergen.RandomConfig{
			Classes: 90, MaxBases: 3, VirtualProb: 0.7,
			MemberNames: 80, MemberProb: 0.06, StaticProb: 0.3, Seed: seed,
		})
	}
	return gs
}

func TestBatchedMatchesBuildTableOnMemoShapes(t *testing.T) {
	for name, g := range memoShapes() {
		want := NewKernel(g, WithStaticRule(), WithTrackPaths()).BuildTable()
		for _, workers := range []int{1, 2} {
			got := NewKernel(g, WithStaticRule(), WithTrackPaths()).BuildTableBatched(workers)
			cellsEqual(t, g, want, got, fmt.Sprintf("%s/workers=%d", name, workers))
		}
	}
}

// SparseMembers is the shape the pruning targets: >64 member names
// (multiple blocks), each with a small support cone.
func TestBatchedOnSparseMembers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := hiergen.SparseMembers(80, 200, 3, seed)
		want := NewKernel(g).BuildTable()
		for _, workers := range []int{1, 4} {
			got := NewKernel(g).BuildTableBatched(workers)
			cellsEqual(t, g, want, got, "sparse")
		}
	}
}

// The batched build must agree with the Definition-9 subobject oracle,
// not only with the other builds (shared-bug protection).
func TestBatchedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2828))
	for i := 0; i < 10; i++ {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: 4 + rng.Intn(12), MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 4, MemberProb: 0.4, Seed: rng.Int63(),
		})
		table := NewKernel(g).BuildTableBatched(2)
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				cid, mid := chg.ClassID(c), chg.MemberID(m)
				want := paths.Lookup(g, cid, mid, 0)
				got := table.Lookup(cid, mid)
				switch {
				case len(want.Defns) == 0:
					if got.Kind() != Undefined {
						t.Fatalf("iter %d: (%s,%s) = %s, oracle undefined",
							i, g.Name(cid), g.MemberName(mid), got.Format(g))
					}
				case want.Ambiguous:
					if got.Kind() != BlueKind {
						t.Fatalf("iter %d: (%s,%s) = %s, oracle ambiguous",
							i, g.Name(cid), g.MemberName(mid), got.Format(g))
					}
				default:
					if got.Kind() != RedKind || got.Class() != want.Subobject.Ldc() {
						t.Fatalf("iter %d: (%s,%s) = %s, oracle red at %s",
							i, g.Name(cid), g.MemberName(mid), got.Format(g),
							g.Name(want.Subobject.Ldc()))
					}
				}
			}
		}
	}
}

// Concurrent batched builds over one shared kernel (and thus one
// shared payload pool) must neither race nor corrupt results. Run
// under -race via `make race`.
func TestBatchedConcurrentSharedKernel(t *testing.T) {
	g := hiergen.SparseMembers(60, 150, 3, 33)
	k := NewKernel(g, WithStaticRule(), WithTrackPaths())
	want := NewKernel(g, WithStaticRule(), WithTrackPaths()).BuildTable()
	const goroutines = 8
	tables := make([]*Table, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = k.BuildTableBatched(2 + i%3)
		}(i)
	}
	wg.Wait()
	for i, table := range tables {
		cellsEqual(t, g, want, table, "concurrent")
		_ = i
	}
}

func TestBatchedNoMembers(t *testing.T) {
	b := chg.NewBuilder()
	a := b.Class("A")
	c := b.Class("C")
	b.Base(c, a, chg.NonVirtual)
	g := b.MustBuild()
	table := NewKernel(g).BuildTableBatched(0)
	if table.Entries() != 0 {
		t.Fatalf("Entries = %d, want 0", table.Entries())
	}
	if r := table.Lookup(c, 0); r.Kind() != Undefined {
		t.Fatalf("lookup in member-less graph = %v", r.Kind())
	}
}

func TestMeasureTableBuildWork(t *testing.T) {
	g := hiergen.SparseMembers(100, 300, 3, 5)
	w := MeasureTableBuildWork(g)
	table := NewKernel(g).BuildTableBatched(0)
	if w.Entries != table.Entries() {
		t.Errorf("Entries = %d, table has %d", w.Entries, table.Entries())
	}
	if w.Blocks != (g.NumMemberNames()+63)/64 {
		t.Errorf("Blocks = %d", w.Blocks)
	}
	if w.UnprunedClassVisits != g.NumMemberNames()*g.NumClasses() {
		t.Errorf("UnprunedClassVisits = %d", w.UnprunedClassVisits)
	}
	if w.BatchedWalkSlots != w.Blocks*g.NumClasses() {
		t.Errorf("BatchedWalkSlots = %d", w.BatchedWalkSlots)
	}
	// Pruning must help on the sparse shape: the batched walk does
	// real work in far fewer (class, block) slots than the unpruned
	// member-major pass visits.
	if w.BatchedClassVisits >= w.UnprunedClassVisits/4 {
		t.Errorf("BatchedClassVisits = %d, not ≪ unpruned %d",
			w.BatchedClassVisits, w.UnprunedClassVisits)
	}
	// And it can never exceed its own walk-slot bound.
	if w.BatchedClassVisits > w.BatchedWalkSlots {
		t.Errorf("BatchedClassVisits %d > walk slots %d", w.BatchedClassVisits, w.BatchedWalkSlots)
	}
}
