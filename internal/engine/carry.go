package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/semantics"
)

// Warm-cache carry-over. An engine Update normally publishes a
// stone-cold snapshot: every cached cell of the predecessor is thrown
// away and refilled lazily, even though the paper's dependency
// structure says an edit at (X, m) can only change entries
// ({X} ∪ descendants(X)) × {m}. UpdateCarried exploits that, and pays
// only for the cone: each successor column starts as a copy of the
// predecessor's page table (pages.go), so every page is shared by
// pointer, and only the pages holding a cone cell are privatised —
// copied — and have their cone cells zeroed. Only cone entries refill.
// Two cases re-lay every page instead: member-name growth changes the
// row stride, and pool compaction rewrites every pooled word. The
// predecessor's payload pool is shared (or, when its garbage has piled
// up, chained: live payloads re-interned into a fresh pool and the
// carried words rewritten), keeping interned blue/static/path payloads
// valid without re-resolution.

// carryCompactMinGarbage is the pool-chaining threshold: a carried
// snapshot weighs its pool only once the garbage could have reached
// this many payloads, and carryShouldCompact decides. Compaction
// re-interns O(live) payloads, so the default policy waits until the
// garbage both clears the floor and outnumbers the live set — the
// amortised cost then stays below the interning work that produced
// the garbage. The weigh gate in carriedSnapshot asks the same policy
// with bounds on both counts, so a policy must compact no less when
// garbage grows or live shrinks. Vars so tests can force the
// compaction path.
var (
	carryCompactMinGarbage = 128
	carryShouldCompact     = func(live, garbage int) bool {
		return garbage >= carryCompactMinGarbage && garbage > live
	}
)

// carryParallelFloor gates the parallel carry: a carry that privatises
// (or, re-laying a column, allocates) fewer pages than this per column
// runs serially. Measured on a 2-vCPU Xeon, serial against two
// workers:
//   - a cone privatising k pages of a warm 20k-class × 512-name Giant
//     column (20 alternating carries each): no difference up to k =
//     256, 76.9 → 71.4 ms at 1024 and 102.4 → 89.6 ms at 2500 (each
//     carry also weighs the pool, ~55 ms);
//   - E19 bulk-carry sessions (10k toggles, one sync per 500; ten
//     alternating pairs): 0.229 → 0.201 ms an edit at 20k classes
//     with every sync fanned out, 0.983 → 0.851 ms at 100k;
//   - edit-serve's per-edit syncs (20k classes, six alternating
//     pairs): step_ms median 43.2 ms with the serial path and 43.5 ms
//     with every carry fanned out.
//
// So the floor sits at the first measured gain. A typical edit's cone
// (~28 pages) stays serial; bulk batches and the rare toggle near a
// root fan out. A var so tests can force the parallel path onto small
// snapshots.
var carryParallelFloor = 1024

// carryCopyStripe is the class-range granule workers steal when they
// re-lay a column: big enough to amortize the counter bump, small
// enough to balance uneven row costs.
const carryCopyStripe = 1024

// weighState is what the pool-weigh gate remembers between weighs: the
// pool's length and its live and garbage payload counts at the last
// weigh, and the pooled payloads cone clears have dropped references
// to since (distinct per cone entry; see coneClear).
type weighState struct {
	poolLen, live, garbage int
	pooledInvalidated      int
}

// ConeEntry is one member name's invalidation cone, as computed by
// incremental.Workspace.InvalidationConeSince: the classes whose
// entries for Member may have changed since the predecessor snapshot.
// Classes may be over-approximate (extra bits cost extra refills, not
// wrong answers) but must never miss a changed entry — that is the
// caller's contract, which engine.WorkspaceBinding discharges with the
// workspace's edit log.
type ConeEntry struct {
	Member  chg.MemberID
	Classes *bitset.Set
}

// CarryStats reports what a carried snapshot inherited — the
// observability the benchmarks and experiments use to assert the
// carry actually happened. Carried/Invalidated count the primary
// (dominance) cells only, keeping the historical benchmark axes
// stable; each extra backend column reports its own pair in Columns.
type CarryStats struct {
	Carried     int // predecessor cells surviving into this snapshot
	Invalidated int // predecessor cells cleared by the cone

	PoolShared    bool // payload pool shared with the predecessor
	PoolCompacted bool // chained to a fresh pool, live payloads re-interned
	PoolWeighed   bool // the carry scanned its cells to weigh the pool
	PoolLive      int  // distinct payloads the carried cells reference (when weighed)
	PoolGarbage   int  // dead payloads left behind in the predecessor's pool (when weighed)

	// Columns reports the per-backend carry of every extra semantics
	// column, in column order; nil for dominance-only snapshots.
	Columns []ColumnCarry

	// Workers is the parallelism the carry ran at: 1 for the serial
	// path (fewer than carryParallelFloor pages to copy — nearly every
	// single-edit sync — or SetCarryWorkers(1)), the work-stealing
	// worker count otherwise.
	Workers int
}

// ColumnCarry is one backend column's share of a warm carry.
type ColumnCarry struct {
	ID          core.SemanticsID
	Carried     int
	Invalidated int
}

// Carry returns the snapshot's carry-over statistics; the zero value
// for snapshots published cold. Carried and Invalidated come from
// fill counters, not a scan: a cell another snapshot filled through a
// shared page may be missing from Carried, which never exceeds the
// cells the snapshot held when it was published.
func (s *Snapshot) Carry() CarryStats { return s.carry }

// UpdateCarried publishes a new version of name wrapping g, seeding
// its cache from the currently published snapshot: every packed cell
// outside the given invalidation cone is carried over (on pages shared
// with the predecessor where the cone leaves them), so only entries
// an edit could have changed refill lazily. The caller guarantees the
// cone covers every (class, member) entry whose declarations changed
// between the two graphs; structural compatibility (class/member-name
// prefixes and inheritance edges unchanged, counts monotone) is
// verified here, and any mismatch falls back to a cold snapshot —
// carried and cold snapshots are indistinguishable except for speed
// and Carry().
//
// Like Update, earlier snapshots are untouched; concurrent readers
// keep the version they hold.
func (e *Engine) UpdateCarried(name string, g *chg.Graph, cone []ConeEntry) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: UpdateCarried(%q) with a nil graph", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.entries[name]
	if !ok {
		return nil, fmt.Errorf("engine: hierarchy %q is not registered", name)
	}
	ent.version++
	if snap, ok := carriedSnapshot(name, ent.version, g, ent.opts, ent.snap, cone, e.carryWorkers); ok {
		ent.snap = snap
	} else {
		snap, err := newSnapshot(name, ent.version, core.NewKernel(g, ent.opts...))
		if err != nil {
			return nil, err
		}
		ent.snap = snap
	}
	return ent.snap, nil
}

// carryCompatible verifies the structural invariants carry-over
// depends on: the predecessor's classes and member names must be an
// id-stable prefix of the successor's (incremental.Workspace freezes
// guarantee this), and no surviving class may have changed its base
// clause — C++ classes are closed at definition, so a differing edge
// means the graphs are not an edit sequence apart and the copy would
// be unsound.
func carryCompatible(old, new *chg.Graph) bool {
	if new.NumClasses() < old.NumClasses() || new.NumMemberNames() < old.NumMemberNames() {
		return false
	}
	for c := 0; c < old.NumClasses(); c++ {
		id := chg.ClassID(c)
		if old.Name(id) != new.Name(id) {
			return false
		}
		ob, nb := old.DirectBases(id), new.DirectBases(id)
		if len(ob) != len(nb) {
			return false
		}
		for i := range ob {
			if ob[i] != nb[i] {
				return false
			}
		}
	}
	for m := 0; m < old.NumMemberNames(); m++ {
		if old.MemberName(chg.MemberID(m)) != new.MemberName(chg.MemberID(m)) {
			return false
		}
	}
	return true
}

// carriedSnapshot builds the successor snapshot seeded from prev, or
// reports ok=false when the graphs are not carry-compatible. workers
// caps the parallel fan-out (≤ 0 means GOMAXPROCS); carries below
// carryParallelFloor pages stay serial regardless.
func carriedSnapshot(name string, version uint64, g *chg.Graph, opts []core.Option, prev *Snapshot, cone []ConeEntry, workers int) (*Snapshot, bool) {
	if prev == nil || !carryCompatible(prev.Graph(), g) {
		return nil, false
	}
	oldN, oldM := prev.Graph().NumClasses(), prev.numMembers
	newN, newM := g.NumClasses(), g.NumMemberNames()

	// Validate the cone's member ids once, up front, and note whether
	// the members are pairwise distinct: distinct members touch
	// disjoint cells, the disjointness the parallel clear relies on.
	// InvalidationConeSince emits one entry per member; a hand-built
	// overlapping cone falls back to the serial clear.
	distinctMembers := true
	seenMember := make(map[chg.MemberID]bool, len(cone))
	for _, ce := range cone {
		if m := int(ce.Member); m < 0 || m >= newM {
			return nil, false
		}
		if seenMember[ce.Member] {
			distinctMembers = false
		}
		seenMember[ce.Member] = true
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Member-name growth changes the row stride, so every page is
	// re-laid; otherwise only the pages privatePages lists are copied
	// and the rest stay shared with prev.
	relayout := newM != oldM
	var private []int
	work := numPages(newN * newM)
	if !relayout {
		private = privatePages(cone, oldN, oldM, newN)
		work = len(private)
	}
	colWorkers := 1
	if workers > 1 && work >= carryParallelFloor {
		colWorkers = workers
	}

	// The successor's pages are staged with plain stores: it is not
	// published yet, so no other goroutine can observe them, and
	// publication through the engine mutex orders these writes before
	// any reader's first load (workers finish before carriedSnapshot
	// returns). The predecessor is still live — its readers may be
	// filling misses, into private and shared pages alike — so its
	// side is read atomically.
	//
	// The same invalidation cone clears every backend column: all
	// served semantics — dominance, C3, gxx — decide lookup[C,m] from
	// the declarations over C's base closure only (carry compatibility
	// pins the closure's edges), so an edit at (X, m) can change
	// exactly ({X} ∪ descendants(X)) × {m} entries under each of them.
	carryColumn := func(src *pagedCells) (dst pagedCells, carried, invalidated, pooled int) {
		if relayout {
			dst, carried = relaid(src, oldN, oldM, newN, newM, nil, colWorkers)
		} else {
			// Read the count before copying: every cell it counts is
			// already filled, so the copy holds it too.
			carried = src.filledCount()
			dst = sharedCarry(src, newN*newM, private, colWorkers)
		}
		if colWorkers > 1 && distinctMembers && len(cone) > 1 {
			invalidated, pooled = coneClearStriped(&dst, cone, oldN, oldM, newM, colWorkers)
		} else {
			invalidated, pooled = coneClear(&dst, cone, oldN, oldM, newM)
		}
		carried = max(carried-invalidated, 0)
		dst.fills.n.Store(int64(carried))
		return dst, carried, invalidated, pooled
	}

	cells, carried, invalidated, pooledInvalidated := carryColumn(&prev.cells)
	colCells := make([]pagedCells, len(prev.sems))
	colStats := make([]ColumnCarry, len(prev.sems))
	for i, pcol := range prev.sems {
		cc, cCarried, cInval, cPooled := carryColumn(&pcol.cells)
		colCells[i] = cc
		colStats[i] = ColumnCarry{ID: pcol.id, Carried: cCarried, Invalidated: cInval}
		pooledInvalidated += cPooled
	}

	// Pool lifetime: share the predecessor's pool (carried words keep
	// their payload indices) unless its garbage outweighs the live
	// payloads, in which case chain to a fresh pool and migrate.
	//
	// Weighing the pool is an O(cells) scan, so it is gated on bounds
	// that need no scan. Since the last weigh, a payload can have
	// become garbage only by being interned anew (pool growth) or by
	// losing a referencing word to a cone clear — and only pooled
	// words reference payloads, inline words free nothing. Let P count
	// the distinct payloads cleared pooled words referenced, per cone
	// entry, summed since the weigh. Then garbage ≤ B = garbage at the
	// weigh + growth + P, and, since each of those payloads is at most
	// one live payload lost, live ≥ live at the weigh − P. The gate
	// asks carryShouldCompact about those bounds; the policy compacts
	// no less on more garbage or fewer live payloads, so the gate is
	// never false when the real counts would compact (for the default
	// policy: garbage ≥ floor and garbage > live imply B ≥ floor and
	// B > live at the weigh − P). Steady-state republishes, whose cone
	// clears drop references to a few payloads, skip the scan.
	pool := prev.pool
	stats := CarryStats{Carried: carried, Invalidated: invalidated, PoolShared: true, Columns: colStats, Workers: colWorkers}
	ws := prev.weigh
	ws.pooledInvalidated += pooledInvalidated
	garbageBound := ws.garbage + pool.Len() - ws.poolLen + ws.pooledInvalidated
	if carryShouldCompact(max(ws.live-ws.pooledInvalidated, 0), garbageBound) {
		// Weigh (and, if compacting, migrate) across the primary cells
		// and every backend column: they all reference the one shared
		// pool, so liveness is the union of their referenced payloads.
		lc := core.NewPoolLiveCounter()
		for _, cc := range append([]pagedCells{cells}, colCells...) {
			for i := 0; i < cc.size; i++ {
				lc.Observe(core.Cell(cc.load(i)))
			}
		}
		stats.PoolWeighed = true
		stats.PoolLive = lc.Live()
		stats.PoolGarbage = pool.Len() - stats.PoolLive
		ws = weighState{poolLen: stats.PoolLive + stats.PoolGarbage, live: stats.PoolLive, garbage: stats.PoolGarbage}
		if carryShouldCompact(stats.PoolLive, stats.PoolGarbage) {
			np := core.NewPool()
			mg := core.NewMigrator(pool, np)
			migrate := func(w uint64) uint64 { return uint64(mg.Migrate(core.Cell(w))) }
			cells, _ = relaid(&cells, newN, newM, newN, newM, migrate, 1)
			for i := range colCells {
				colCells[i], _ = relaid(&colCells[i], newN, newM, newN, newM, migrate, 1)
			}
			pool = np
			stats.PoolShared, stats.PoolCompacted = false, true
			ws = weighState{poolLen: np.Len(), live: np.Len()}
		}
	}

	kopts := append(append([]core.Option(nil), opts...), core.WithPool(pool))
	cols := make([]*semColumn, len(prev.sems))
	for i, pcol := range prev.sems {
		sem, err := semantics.New(pcol.id, g, pool)
		if err != nil {
			return nil, false
		}
		cols[i] = &semColumn{id: pcol.id, sem: sem, cells: colCells[i]}
	}
	return &Snapshot{
		name:       name,
		version:    version,
		k:          core.NewKernel(g, kopts...),
		pool:       pool,
		numMembers: newM,
		cells:      cells,
		sems:       cols,
		carry:      stats,
		weigh:      ws,
	}, true
}

// privatePages lists, ascending, the pages of an oldN-row column (m
// words per row) a carry must privatise: every page holding a cone
// cell of an old class, filled or not — a shared page with an
// unfilled cone cell would let a late predecessor fill leak the old
// answer into the successor — plus, when classes were added, a
// partial last page the new rows extend, so the predecessor's page
// never holds cells beyond its own range.
func privatePages(cone []ConeEntry, oldN, m, newN int) []int {
	oldSize := oldN * m
	marks := bitset.New(numPages(oldSize))
	for _, ce := range cone {
		if ce.Classes == nil {
			continue
		}
		member := int(ce.Member)
		ce.Classes.ForEach(func(c int) {
			if c < oldN {
				marks.Add((c*m + member) >> pageShift)
			}
		})
	}
	if newN > oldN && oldSize&pageMask != 0 {
		marks.Add(oldSize >> pageShift)
	}
	return marks.Elems()
}

// sharedCarry returns a successor column of size cells that shares
// every page of src except those listed in private, which it copies;
// pages past src's end are fresh.
func sharedCarry(src *pagedCells, size int, private []int, workers int) pagedCells {
	dst := pagedCells{pages: make([]*cellPage, numPages(size)), size: size, fills: &fillCount{counted: true}}
	for p := copy(dst.pages, src.pages); p < len(dst.pages); p++ {
		dst.pages[p] = new(cellPage)
	}
	forEachStolen(len(private), workers, func(i int) {
		p := private[i]
		dst.pages[p] = clonePage(src.pages[p])
	})
	return dst
}

// relaid returns a fresh, unshared column of newN×newM cells holding
// src's first oldN rows of oldM words, re-strided, with every nonzero
// word passed through mapWord when it is non-nil, and the number of
// nonzero words copied, which is also the new column's fill count.
// Workers steal carryCopyStripe-sized class
// ranges and so write disjoint cells; mapWord must then be safe for
// concurrent use.
func relaid(src *pagedCells, oldN, oldM, newN, newM int, mapWord func(uint64) uint64, workers int) (pagedCells, int) {
	dst := newPagedCells(newN * newM)
	var copied atomic.Int64
	forEachStolen((oldN+carryCopyStripe-1)/carryCopyStripe, workers, func(stripe int) {
		n := 0
		for c := stripe * carryCopyStripe; c < min((stripe+1)*carryCopyStripe, oldN); c++ {
			for m := 0; m < oldM; m++ {
				if w := src.load(c*oldM + m); w != 0 {
					if mapWord != nil {
						w = mapWord(w)
					}
					*dst.word(c*newM + m) = w
					n++
				}
			}
		}
		copied.Add(int64(n))
	})
	dst.fills.n.Store(copied.Load())
	return dst, int(copied.Load())
}

// coneClear zeroes, in the successor column dst, every cone cell of an
// old class and an old member — cells on pages privatePages or relaid
// made private — and returns how many filled cells it cleared and how
// many distinct pooled payloads those cells referenced, counted per
// cone entry (a bound on the payloads the clear can have freed).
func coneClear(dst *pagedCells, cone []ConeEntry, oldN, oldM, newM int) (cleared, pooled int) {
	for _, ce := range cone {
		c, p := clearEntry(dst, ce, oldN, oldM, newM)
		cleared += c
		pooled += p
	}
	return cleared, pooled
}

func clearEntry(dst *pagedCells, ce ConeEntry, oldN, oldM, newM int) (cleared, pooled int) {
	m := int(ce.Member)
	if m >= oldM || ce.Classes == nil {
		return 0, 0
	}
	var freed map[uint64]struct{} // distinct pooled words cleared
	ce.Classes.ForEach(func(c int) {
		if c >= oldN {
			return
		}
		if w := dst.word(c*newM + m); *w != 0 {
			if core.Cell(*w).Pooled() {
				if freed == nil {
					freed = make(map[uint64]struct{})
				}
				freed[*w] = struct{}{}
			}
			*w = 0
			cleared++
		}
	})
	return cleared, len(freed)
}

// coneClearStriped is coneClear with workers stealing whole entries: a
// bulk edit batch arrives as one entry per edited member
// (InvalidationConeSince unions the batch's cones per member first),
// and distinct members own disjoint cells, so entries parallelize
// without coordination. The caller guarantees member distinctness.
func coneClearStriped(dst *pagedCells, cone []ConeEntry, oldN, oldM, newM, workers int) (cleared, pooled int) {
	var nCleared, nPooled atomic.Int64
	forEachStolen(len(cone), workers, func(i int) {
		c, p := clearEntry(dst, cone[i], oldN, oldM, newM)
		nCleared.Add(int64(c))
		nPooled.Add(int64(p))
	})
	return int(nCleared.Load()), int(nPooled.Load())
}

// forEachStolen calls fn(i) for every i in [0, n): inline when workers
// ≤ 1, otherwise on up to workers goroutines stealing indices from a
// shared counter.
func forEachStolen(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
