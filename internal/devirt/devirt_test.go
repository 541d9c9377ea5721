package devirt

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

var allSems = []core.SemanticsID{core.SemDominance, core.SemC3, core.SemGxx}

func testGraphs() map[string]func() *chg.Graph {
	return map[string]func() *chg.Graph{
		"figure1": hiergen.Figure1,
		"figure2": hiergen.Figure2,
		"figure3": hiergen.Figure3,
		"figure9": hiergen.Figure9,
		"sparse":  func() *chg.Graph { return hiergen.SparseMembers(90, 150, 3, 7) },
		"random": func() *chg.Graph {
			return hiergen.Random(hiergen.RandomConfig{
				Classes: 120, MaxBases: 3, VirtualProb: 0.3,
				MemberNames: 10, MemberProb: 0.12, Seed: 23,
			})
		},
		"giant": func() *chg.Graph {
			return hiergen.Giant(hiergen.GiantConfig{
				Classes: 500, MemberNames: 64, Interfaces: 6, FatWidth: 12,
				TowerHeight: 3, ChainLen: 5, Decls: 700, VirtualProb: 0.35, Seed: 13,
			})
		},
	}
}

// oracleTargets is the brute-force CHA oracle: enumerate the cone by
// probing IsBase across every class, look each receiver up one at a
// time, collect the distinct declaring classes of the Found results.
func oracleTargets(t *testing.T, snap *engine.Snapshot, sem core.SemanticsID, c chg.ClassID, m chg.MemberID) Resolution {
	t.Helper()
	g := snap.Graph()
	res := Resolution{Root: c, Member: m}
	if !g.Valid(c) || m < 0 || int(m) >= g.NumMemberNames() {
		return res
	}
	seen := map[chg.ClassID]struct{}{}
	for d := 0; d < g.NumClasses(); d++ {
		did := chg.ClassID(d)
		if did != c && !g.IsBase(c, did) {
			continue
		}
		res.Cone++
		lr, ok := snap.LookupSem(sem, did, m)
		if !ok {
			t.Fatalf("backend %s not served", sem)
		}
		switch {
		case lr.Found():
			res.Resolved++
			seen[lr.Class()] = struct{}{}
		case lr.Ambiguous():
			res.Ambiguous++
		case lr.Failed():
			res.Failed++
		default:
			res.Undefined++
		}
	}
	for d := range seen {
		res.Targets = append(res.Targets, d)
	}
	sort.Slice(res.Targets, func(i, j int) bool { return res.Targets[i] < res.Targets[j] })
	res.Monomorphic = len(res.Targets) == 1
	return res
}

func sameTargets(a, b []chg.ClassID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstOracle pins every (class, member) resolution of g, under
// all three backends, against the brute-force oracle: a default
// resolver and a FullStats one queried in id order, and cache-every-walk
// resolvers (memoMinReads 0) queried in id order and descendants-first,
// where each walk must stop at the already cached direct derived
// classes, then queried again warm.
func checkAgainstOracle(t *testing.T, g *chg.Graph, name string) {
	t.Helper()
	old := memoMinReads
	defer func() { memoMinReads = old }()

	snap := engine.NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
	nc, nm := g.NumClasses(), g.NumMemberNames()
	idOrder := make([]chg.ClassID, nc)
	for c := range idOrder {
		idOrder[c] = chg.ClassID(c)
	}
	descFirst := slices.Clone(g.Topo())
	slices.Reverse(descFirst)

	for _, sem := range allSems {
		want := make([]Resolution, nc*nm)
		for c := 0; c < nc; c++ {
			for m := 0; m < nm; m++ {
				want[c*nm+m] = oracleTargets(t, snap, sem, chg.ClassID(c), chg.MemberID(m))
			}
		}
		newResolver := func() *Resolver {
			r, err := New(snap, sem)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		// pass resolves every pair in class order and checks the
		// answers; hook, when set, runs before each resolution.
		pass := func(label string, r *Resolver, order []chg.ClassID, hook func(chg.ClassID, chg.MemberID)) {
			t.Helper()
			for _, cid := range order {
				for m := 0; m < nm; m++ {
					mid := chg.MemberID(m)
					if hook != nil {
						hook(cid, mid)
					}
					w := want[int(cid)*nm+m]
					got := r.ResolveTargets(cid, mid)
					if !sameTargets(got.Targets, w.Targets) || got.Monomorphic != w.Monomorphic {
						t.Fatalf("%s/%s/%s: targets of (%s, %s) = %v, want %v (cache hit %v)",
							name, sem, label, g.Name(cid), g.MemberName(mid), got.Targets, w.Targets, got.FastPath)
					}
					if r.FullStats {
						// The exact-tally path must agree with the
						// oracle on every count, and the counts must
						// cover the cone.
						if got.FastPath || got.Cone != w.Cone || got.Resolved != w.Resolved ||
							got.Undefined != w.Undefined || got.Ambiguous != w.Ambiguous || got.Failed != w.Failed {
							t.Fatalf("%s/%s/%s: FullStats resolution of (%s, %s) = %+v, want %+v",
								name, sem, label, g.Name(cid), g.MemberName(mid), got, w)
						}
						if sum := got.Resolved + got.Undefined + got.Ambiguous + got.Failed; sum != got.Cone {
							t.Fatalf("%s/%s: tallies sum to %d over a %d-cone", name, sem, sum, got.Cone)
						}
					} else if got.Cone != 0 || got.Resolved != 0 || got.Undefined != 0 || got.Ambiguous != 0 || got.Failed != 0 {
						t.Fatalf("%s/%s/%s: resolution of (%s, %s) reports tallies without FullStats: %+v",
							name, sem, label, g.Name(cid), g.MemberName(mid), got)
					}
				}
			}
		}

		pass("default", newResolver(), idOrder, nil)
		full := newResolver()
		full.FullStats = true
		pass("fullstats", full, idOrder, nil)

		memoMinReads = 0
		pass("cached/id-order", newResolver(), idOrder, nil)
		r := newResolver()
		pass("cached/descendants-first", r, descFirst, func(c chg.ClassID, m chg.MemberID) {
			if n := walkReads(r, c, m); n != 1 {
				t.Fatalf("%s/%s: walk of (%s, %s) read %d cells with every direct derived class cached, want 1",
					name, sem, g.Name(c), g.MemberName(m), n)
			}
		})
		pass("cached/warm", r, idOrder, func(c chg.ClassID, m chg.MemberID) {
			if !r.ResolveTargets(c, m).FastPath {
				t.Fatalf("%s/%s: warm resolution of (%s, %s) missed the cache", name, sem, g.Name(c), g.MemberName(m))
			}
		})
		memoMinReads = old
	}
}

// walkReads runs r's cache-aware walk of (c, m) without storing the
// result and returns how many lookup cells it read.
func walkReads(r *Resolver, c chg.ClassID, m chg.MemberID) int {
	sc := r.scratch.Get().(*walkScratch)
	defer r.scratch.Put(sc)
	sh := &r.cache[int(m)%cacheShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return r.walk(sc, c, m, sh.pairs[m], sh, nil)
}

// TestResolveTargetsOracle pins ResolveTargets against the
// brute-force oracle on every fixture and seeded generator, all three
// backends, with and without FullStats and the cache.
func TestResolveTargetsOracle(t *testing.T) {
	for name, build := range testGraphs() {
		name, build := name, build
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, build(), name) })
	}
}

// TestResolveTargetsOracleSparseCones reruns the oracle pinning on
// every fixture built past a lowered DenseClosureLimit, so the
// oracle's IsBase probes take the sparse closure path.
func TestResolveTargetsOracleSparseCones(t *testing.T) {
	old := chg.DenseClosureLimit
	chg.DenseClosureLimit = 1
	defer func() { chg.DenseClosureLimit = old }()

	for name, build := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			g := build()
			if !g.SparseClosures() {
				t.Fatal("graph built dense despite lowered DenseClosureLimit")
			}
			checkAgainstOracle(t, g, name+"-sparse")
		})
	}
}

// TestResolveBatch checks the batch path against the single-site one:
// duplicated shuffled sites (plus invalid ids) under Workers 1 and 4,
// and with FullStats, every site's Resolution equal to its
// ResolveTargets answer.
func TestResolveBatch(t *testing.T) {
	g := testGraphs()["giant"]()
	snap := engine.NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
	rng := rand.New(rand.NewSource(4))

	sites := make([]Site, 0, 4000)
	for i := 0; i < 3600; i++ {
		sites = append(sites, Site{
			Class:  chg.ClassID(rng.Intn(g.NumClasses())),
			Member: chg.MemberID(rng.Intn(g.NumMemberNames() / 4)), // force duplicates
		})
	}
	for i := 0; i < 64; i++ {
		sites = append(sites, Site{chg.ClassID(rng.Intn(g.NumClasses()+8) - 4), chg.MemberID(rng.Intn(g.NumMemberNames()+8) - 4)})
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })

	for _, sem := range allSems {
		for _, c := range []struct {
			workers int
			full    bool
		}{{1, false}, {4, false}, {4, true}} {
			workers := c.workers
			r, err := New(snap, sem)
			if err != nil {
				t.Fatal(err)
			}
			r.Workers, r.FullStats = workers, c.full
			got := r.ResolveBatch(sites, nil)
			if len(got) != len(sites) {
				t.Fatalf("%d resolutions for %d sites", len(got), len(sites))
			}
			single, err := New(snap, sem)
			if err != nil {
				t.Fatal(err)
			}
			single.FullStats = c.full
			for i, s := range sites {
				want := single.ResolveTargets(s.Class, s.Member)
				if got[i].Root != s.Class || got[i].Member != s.Member {
					t.Fatalf("%s w=%d: resolution %d answers (%d,%d), site is (%d,%d)",
						sem, workers, i, got[i].Root, got[i].Member, s.Class, s.Member)
				}
				if !sameTargets(got[i].Targets, want.Targets) || got[i].Cone != want.Cone ||
					got[i].Resolved != want.Resolved || got[i].Monomorphic != want.Monomorphic {
					t.Fatalf("%s w=%d full=%v: batch resolution %d disagrees with ResolveTargets", sem, workers, c.full, i)
				}
			}
		}
	}
}

// TestResolverUnknownBackend: constructing against a backend the
// snapshot does not serve fails.
func TestResolverUnknownBackend(t *testing.T) {
	snap := engine.NewSnapshot(hiergen.Figure1())
	if _, err := New(snap, core.SemC3); err == nil {
		t.Fatal("New accepted an unserved backend")
	}
}

// TestResolveBatchAppend checks the append contract and empty input.
func TestResolveBatchAppend(t *testing.T) {
	snap := engine.NewSnapshot(hiergen.Figure9())
	r, err := New(snap, core.SemDominance)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []Resolution{{Root: -7}}
	out := r.ResolveBatch([]Site{{0, 0}}, prefix)
	if len(out) != 2 || out[0].Root != -7 {
		t.Fatal("existing out elements disturbed")
	}
	if got := r.ResolveBatch(nil, nil); len(got) != 0 {
		t.Fatal("empty batch produced resolutions")
	}
}

// TestConcurrentCacheShared races ResolveBatch and ResolveTargets
// callers over one resolver whose cache stores every walk: each
// answer must equal a FullStats resolver's, whichever goroutine
// cached the pair or the descendants its walk stopped at. Run it
// under -race.
func TestConcurrentCacheShared(t *testing.T) {
	old := memoMinReads
	memoMinReads = 0
	defer func() { memoMinReads = old }()

	g := testGraphs()["giant"]()
	snap := engine.NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
	nc, nm := g.NumClasses(), g.NumMemberNames()
	for _, sem := range allSems {
		full, err := New(snap, sem)
		if err != nil {
			t.Fatal(err)
		}
		full.FullStats = true
		want := make([][]chg.ClassID, nc*nm)
		for c := 0; c < nc; c++ {
			for m := 0; m < nm; m++ {
				want[c*nm+m] = full.ResolveTargets(chg.ClassID(c), chg.MemberID(m)).Targets
			}
		}
		check := func(s Site, got Resolution) {
			if !sameTargets(got.Targets, want[int(s.Class)*nm+int(s.Member)]) {
				t.Errorf("%s: targets of (%s, %s) = %v, want %v", sem,
					g.Name(s.Class), g.MemberName(s.Member), got.Targets, want[int(s.Class)*nm+int(s.Member)])
			}
		}

		r, err := New(snap, sem)
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = 2
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			rng := rand.New(rand.NewSource(int64(w)))
			sites := make([]Site, 0, nc*nm)
			for c := 0; c < nc; c++ {
				for m := 0; m < nm; m++ {
					sites = append(sites, Site{chg.ClassID(c), chg.MemberID(m)})
				}
			}
			rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w%2 == 0 {
					for i, res := range r.ResolveBatch(sites, nil) {
						check(sites[i], res)
					}
					return
				}
				for _, s := range sites {
					check(s, r.ResolveTargets(s.Class, s.Member))
				}
			}()
		}
		wg.Wait()
		if st := r.CacheStats(); st.Pairs != nc*nm || st.Sets == 0 || st.Sets > st.Pairs || st.Bytes <= 0 {
			t.Errorf("%s: cache stats %+v after resolving all %d pairs", sem, st, nc*nm)
		}
	}
}
