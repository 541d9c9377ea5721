package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// toggleMember adds name to c when c does not declare it and removes
// it otherwise.
func toggleMember(t *testing.T, w *incremental.Workspace, c chg.ClassID, name string) {
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

// lateClassWithDescendants returns the highest class id with at least
// two descendants: its cone is more than one row, and — ids being
// bases-first — leaves the first page alone.
func lateClassWithDescendants(g *chg.Graph) chg.ClassID {
	for c := chg.ClassID(g.NumClasses() - 1); c > 0; c-- {
		if g.Descendants(c).Count() >= 2 {
			return c
		}
	}
	return 0
}

// conePageSet lists the pages of an n-row, m-word-stride column that
// hold a cell of the sync's cone.
func conePageSet(res SyncResult, n, m int) map[int]bool {
	pages := map[int]bool{}
	for _, ce := range res.Cone {
		ce.Classes.ForEach(func(c int) {
			if c < n {
				pages[(c*m+int(ce.Member))>>pageShift] = true
			}
		})
	}
	return pages
}

// (a) A cone page must be privatised even when none of its cone cells
// is filled at carry time: the predecessor stays live, and a fill
// there after publication — with the old answer — must not leak into
// the successor.
func TestPageSharingPredecessorFillAfterPublication(t *testing.T) {
	for _, half := range []bool{false, true} {
		t.Run(fmt.Sprintf("half-warm=%v", half), func(t *testing.T) {
			g0 := smallGiant()
			w, err := incremental.FromGraph(g0)
			if err != nil {
				t.Fatal(err)
			}
			b, p, err := New().BindWorkspace("h", w)
			if err != nil {
				t.Fatal(err)
			}
			g := p.Graph()
			x := lateClassWithDescendants(g)
			m := chg.MemberID(g.NumMemberNames() - 1)
			name := g.MemberName(m)
			if half {
				// Fill every other class's row except member m: the
				// cone's pages then hold filled cells, its own cells none.
				for c := 0; c < g.NumClasses(); c += 2 {
					for k := 0; k < g.NumMemberNames(); k++ {
						if chg.MemberID(k) != m {
							p.Lookup(chg.ClassID(c), chg.MemberID(k))
						}
					}
				}
			}
			toggleMember(t, w, x, name)
			res, err := b.SyncDetail()
			if err != nil {
				t.Fatal(err)
			}
			s := res.Snapshot
			if s.cells.pages[0] != p.cells.pages[0] {
				t.Fatal("the carry shared no page; the test shows nothing")
			}
			changed := 0
			for _, ce := range res.Cone {
				ce.Classes.ForEach(func(c int) {
					old := p.Lookup(chg.ClassID(c), ce.Member) // the old answer, into P's pages
					if !old.Equal(s.Lookup(chg.ClassID(c), ce.Member)) {
						changed++
					}
				})
			}
			if changed == 0 {
				t.Fatal("the edit changed no cone answer; the test shows nothing")
			}
			diffAgainstColdBuild(t, "successor", s, nil)
			diffAgainstColdBuild(t, "predecessor", p, nil)
		})
	}
}

// (b) A carry shares, by pointer, exactly the pages that hold no cone
// cell, in every column; member-name growth and pool compaction re-lay
// the whole column and share none.
func TestPageSharingPointerIdentity(t *testing.T) {
	opts := []core.Option{core.WithSemantics(core.SemC3)}
	g0 := smallGiant()
	w, err := incremental.FromGraph(g0)
	if err != nil {
		t.Fatal(err)
	}
	b, p, err := New().BindWorkspace("h", w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p.WarmAll()
	g := p.Graph()
	n, m := g.NumClasses(), g.NumMemberNames()
	if numPages(n*m) < 3 {
		t.Fatalf("fixture has %d pages; want several", numPages(n*m))
	}
	columns := func(s *Snapshot) []*pagedCells { return []*pagedCells{&s.cells, &s.sems[0].cells} }

	toggleMember(t, w, chg.ClassID(n-1), g.MemberName(0))
	res, err := b.SyncDetail()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Snapshot
	cone := conePageSet(res, n, m)
	for i, sc := range columns(s) {
		pc := columns(p)[i]
		shared := 0
		for pg := range sc.pages {
			if (sc.pages[pg] == pc.pages[pg]) == cone[pg] {
				t.Fatalf("column %d page %d: shared=%v, holds a cone cell=%v", i, pg, sc.pages[pg] == pc.pages[pg], cone[pg])
			}
			if !cone[pg] {
				shared++
			}
		}
		if shared == 0 || len(cone) == 0 {
			t.Fatalf("column %d: %d shared pages, %d cone pages; the fixture shows nothing", i, shared, len(cone))
		}
	}
	diffAgainstColdBuild(t, "toggle", s, opts)

	noneShared := func(label string, prev, next *Snapshot) {
		t.Helper()
		for i, nc := range columns(next) {
			for _, pg := range nc.pages {
				for _, ppg := range columns(prev)[i].pages {
					if pg == ppg {
						t.Fatalf("%s: column %d shares a page with its predecessor", label, i)
					}
				}
			}
		}
	}
	if err := w.AddMember(chg.ClassID(3), chg.Member{Name: "fresh_name", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	grown, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	noneShared("member-name growth", s, grown)
	diffAgainstColdBuild(t, "member-name growth", grown, opts)

	oldMin, oldPolicy := carryCompactMinGarbage, carryShouldCompact
	carryCompactMinGarbage = 1
	carryShouldCompact = func(live, garbage int) bool { return true }
	defer func() { carryCompactMinGarbage, carryShouldCompact = oldMin, oldPolicy }()
	grown.WarmAll()
	toggleMember(t, w, chg.ClassID(n/2), g.MemberName(1))
	compacted, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !compacted.Carry().PoolCompacted {
		t.Fatal("forced compaction did not compact")
	}
	noneShared("compaction", grown, compacted)
	diffAgainstColdBuild(t, "compaction", compacted, opts)
}

// (c) Columns whose length is not a multiple of pageWords, and class
// adds whose new rows straddle a page boundary: the partial last page
// is privatised, new pages are fresh, the predecessor counts only its
// own range, and the carried count is exact.
func TestPageSharingPartialPagesAndClassAdds(t *testing.T) {
	const classes, names = 70, 100 // 7000 cells: one full page, one partial
	rng := rand.New(rand.NewSource(5))
	w, ids := randomEditableWorkspace(rng, classes)
	for k := 0; k < names; k++ {
		if err := w.AddMember(ids[rng.Intn(len(ids))], chg.Member{Name: fmt.Sprintf("n%d", k), Kind: chg.Method}); err != nil {
			t.Fatal(err)
		}
	}
	b, p, err := New().BindWorkspace("h", w, core.WithStaticRule())
	if err != nil {
		t.Fatal(err)
	}
	warmSnapshot(p)
	if got := p.CachedEntries(); got != classes*names || classes*names%pageWords == 0 {
		t.Fatalf("predecessor holds %d cells, want %d on a partial last page", got, classes*names)
	}
	for k := 0; k < 12; k++ { // rows 70..81 cross the 8192-cell boundary
		if _, err := w.AddClass(fmt.Sprintf("New%d", k), []incremental.BaseDecl{{Class: ids[rng.Intn(len(ids))], Virtual: k%2 == 0}}); err != nil {
			t.Fatal(err)
		}
	}
	toggleMember(t, w, ids[1], "n7")
	s, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	last := classes * names >> pageShift
	if s.cells.pages[last] == p.cells.pages[last] {
		t.Fatal("the partial last page the new rows extend is still shared")
	}
	if len(s.cells.pages) <= len(p.cells.pages) {
		t.Fatalf("%d pages after the class adds, want more than %d", len(s.cells.pages), len(p.cells.pages))
	}
	if st := s.Carry(); st.Carried != s.CachedEntries() || st.Carried+st.Invalidated != classes*names {
		t.Fatalf("carry %+v, successor holds %d cells; want exact counts", st, s.CachedEntries())
	}
	warmSnapshot(s)
	if got := p.CachedEntries(); got != classes*names {
		t.Fatalf("predecessor counts %d cells after the successor warmed, want %d", got, classes*names)
	}
	diffAgainstColdBuild(t, "class adds", s, []core.Option{core.WithStaticRule()})

	// A single-threaded session keeps the carried count exact.
	names2 := []string{"n0", "n1", "n2", "n3", "n50", "n99"}
	for round := 0; round < 20; round++ {
		for k := 0; k < 40; k++ {
			g := s.Graph()
			s.Lookup(chg.ClassID(rng.Intn(g.NumClasses())), chg.MemberID(rng.Intn(g.NumMemberNames())))
		}
		toggleMember(t, w, ids[rng.Intn(len(ids))], names2[rng.Intn(len(names2))])
		if round%5 == 0 {
			if _, err := w.AddClass(fmt.Sprintf("R%d", round), []incremental.BaseDecl{{Class: ids[rng.Intn(len(ids))]}}); err != nil {
				t.Fatal(err)
			}
		}
		prevCount := s.CachedEntries()
		if s, err = b.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := s.Carry(); st.Carried != s.CachedEntries() || st.Carried+st.Invalidated != prevCount {
			t.Fatalf("round %d: carry %+v, successor holds %d, predecessor held %d", round, st, s.CachedEntries(), prevCount)
		}
	}
}

// (d) Old snapshots keep filling — cone cells included — while the
// writer republishes and readers read the newest snapshot. Every
// snapshot published must still equal a cold build of its own graph.
// Run under -race.
func TestPageSharingOldSnapshotFillRace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w, ids := randomEditableWorkspace(rng, 120)
	var names []string
	for k := 0; k < 70; k++ { // 8400 cells: three pages
		names = append(names, fmt.Sprintf("n%d", k))
		if err := w.AddMember(ids[rng.Intn(len(ids))], chg.Member{Name: names[k], Kind: chg.Method}); err != nil {
			t.Fatal(err)
		}
	}
	opts := []core.Option{core.WithStaticRule(), core.WithTrackPaths()}
	b, snap, err := New().BindWorkspace("race", w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	published := []*Snapshot{snap}
	pick := func(rng *rand.Rand, newest bool) *Snapshot {
		mu.Lock()
		defer mu.Unlock()
		if newest {
			return published[len(published)-1]
		}
		return published[rng.Intn(len(published))]
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64, newest bool) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := pick(rng, newest)
				g := s.Graph()
				for q := 0; q < 64; q++ {
					res := s.Lookup(chg.ClassID(rng.Intn(g.NumClasses())), chg.MemberID(rng.Intn(g.NumMemberNames())))
					_ = res.Blue()
					_ = res.Path()
				}
			}
		}(int64(100+r), r%2 == 0)
	}
	for round := 0; round < 40; round++ {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			randomMemberEdit(rng, w, ids, names)
		}
		if round%7 == 3 {
			id, err := w.AddClass(fmt.Sprintf("N%d", round), []incremental.BaseDecl{{Class: ids[rng.Intn(len(ids))]}})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if round%13 == 6 {
			names = append(names, fmt.Sprintf("late%d", round))
		}
		s, err := b.Sync()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		published = append(published, s)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	for i, s := range published {
		diffAgainstColdBuild(t, fmt.Sprintf("version %d", i+1), s, opts)
	}
}

// A 150-toggle session on a warm Giant weighs the pool only a handful
// of times: cone clears that drop references to a few payloads cannot
// have produced enough garbage to compact, so the gate skips the
// O(cells) scan. Compaction itself is still reached when garbage does
// pile up (TestPoolBoundedAcrossLongEditSession).
func TestPoolWeighGateSkipsSteadyToggles(t *testing.T) {
	cfg := hiergen.GiantDefaults(2000)
	cfg.MemberNames = 128
	g0 := hiergen.Giant(cfg)
	w, err := incremental.FromGraph(g0)
	if err != nil {
		t.Fatal(err)
	}
	b, snap, err := New().BindWorkspace("h", w)
	if err != nil {
		t.Fatal(err)
	}
	snap.WarmAll()
	weighs, toggles := 0, 0
	for _, op := range hiergen.EditScript(g0, 400, 1) {
		if op.IsClassAdd() || toggles == 150 {
			continue
		}
		toggles++
		c, ok := w.ID(op.Class)
		if !ok {
			t.Fatalf("%s: unknown class", op)
		}
		toggleMember(t, w, c, op.Member)
		if snap, err = b.Sync(); err != nil {
			t.Fatal(err)
		}
		if snap.Carry().PoolWeighed {
			weighs++
		}
	}
	if toggles != 150 {
		t.Fatalf("script held %d toggles, want 150", toggles)
	}
	if weighs > 3 {
		t.Fatalf("%d of 150 toggles weighed the pool (%d payloads)", weighs, snap.Pool().Len())
	}
	diffAgainstColdBuild(t, "after 150 toggles", snap, nil)
}
