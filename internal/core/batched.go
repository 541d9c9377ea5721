package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// blockBits is the member-block width: one word of the membership
// matrix, so a class's participation in a whole block is a single
// uint64 mask probe.
const blockBits = 64

// BuildTableBatched builds the same table as BuildTable with the
// support-pruned, word-batched pass (≤ 0 workers means GOMAXPROCS).
func (a *Analyzer) BuildTableBatched(workers int) *Table { return a.k.BuildTableBatched(workers) }

// BuildTableBatched is the kernel-level batched tabulation. Member
// names are grouped into blocks of 64 — one word of the membership
// matrix of Figure 8 lines [6]–[9]. Each block is filled by one walk
// of the shared topological order: at class C the block's mask word
// row[C].Word(b) says, in one load, which of the 64 members are in
// Members[C]; a zero mask skips C entirely, so a member defined in a
// small cone never drags the pass across the rest of the hierarchy.
// Per-entry cost is proportional to Σ|supp(m)| (plus one mask probe
// per class per block) instead of the member-major |M|·|N|.
//
// Workers claim whole blocks from an atomic counter (work stealing —
// a worker stuck on a dense block doesn't hold up the rest), and each
// carries its own reusable scratch: 64 result columns for O(1) base
// lookups and the resolve temporaries, so steady-state filling does
// no per-member allocation. Distinct blocks write disjoint table
// entries and the payload pool is concurrency-safe, so workers share
// the kernel freely.
func (k *Kernel) BuildTableBatched(workers int) *Table {
	g := k.g
	n := g.NumClasses()
	t := &Table{
		g:       g,
		pool:    k.pool,
		results: make([][]Cell, n),
	}
	var mm, decl *bitset.Matrix
	t.members, mm, decl = memberUniverse(g)
	for c := 0; c < n; c++ {
		t.results[c] = make([]Cell, len(t.members[c]))
	}
	nb := (g.NumMemberNames() + blockBits - 1) / blockBits
	if nb == 0 {
		return t
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		sc := newBlockScratch(n)
		for b := 0; b < nb; b++ {
			k.fillBlock(t, mm, decl, b, sc, 0)
		}
		return t
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newBlockScratch(n)
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				k.fillBlock(t, mm, decl, b, sc, 0)
			}
		}()
	}
	wg.Wait()
	return t
}

// blockScratch is one worker's reusable state: 64 packed-cell columns
// (column j holds this block's member j results per class, zero =
// not filled / undefined), the touched-class list for sparse clearing
// between blocks, the resolve temporaries, and the extension memo.
type blockScratch struct {
	cols    []Cell // column j is cols[j*n : (j+1)*n]
	touched []chg.ClassID
	rs      resolveScratch

	// memoKey/memoCell is the extension memo: the last sole-base
	// extension of a pooled cell (a tracked path, static coverage, a
	// blue set) and the cell it resolved to. Such an entry is as pure
	// as extendInline's: with one contributor and no blue set to kill,
	// lines [11]–[45] only extend the base's abstractions and path
	// across the edge — no staticIn(·, m) test, no dominance test — so
	// the result depends on (base cell, base, c) alone, whatever the
	// member. On a repeat fillBlock skips resolveDeclared and its pool
	// interning. One entry suffices: the members of one block that a
	// class inherits from one declaration along one path arrive
	// consecutively with the same base cell. A map over every
	// extension ever seen was slower on the 20k-class Giant: it held
	// ~1M keys for ~0.3M hits beyond the last-entry ones, and its
	// probes cost more than they saved (DESIGN.md, "Warming a
	// snapshot"). The memo lives for the whole build, across blocks
	// and chunks; memoHits counts the resolves it saved, for tests.
	memoKey  extendKey
	memoCell Cell
	memoHits int
}

// extendKey names one path extension: the sole contributing base's
// cell src, reached from class c across its edge from base.
type extendKey struct {
	src  Cell
	base chg.ClassID
	c    chg.ClassID
}

func newBlockScratch(n int) *blockScratch {
	return &blockScratch{cols: make([]Cell, blockBits*n)}
}

// fillBlock fills every table entry of member block b (member ids
// [64b, 64b+64)) in one topological walk. Because the block's members
// occupy a contiguous run of each class's sorted member list, the set
// bits of the mask word map one-to-one onto consecutive result slots
// starting at the run's lower bound — no per-member search.
//
// wordOff is the block index of mm/decl's first word: 0 when the
// matrices cover the whole member universe (the batched build), b0
// when they are a streaming chunk's window [64·b0, 64·b1).
func (k *Kernel) fillBlock(t *Table, mm, decl *bitset.Matrix, b int, sc *blockScratch, wordOff int) {
	g := k.g
	n := g.NumClasses()
	first := chg.MemberID(b * blockBits)
	sc.touched = sc.touched[:0]
	for _, c := range g.Topo() {
		w := mm.Row(int(c)).Word(b - wordOff)
		if w == 0 {
			continue
		}
		sc.touched = append(sc.touched, c)
		dw := decl.Row(int(c)).Word(b - wordOff)
		bases := g.DirectBases(c)
		rs := t.results[c]
		idx := memberLowerBound(t.members[c], first)
		for ; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			declared := dw&(1<<uint(j)) != 0
			col := sc.cols[j*n : (j+1)*n]
			var cell Cell
			var key extendKey
			if !declared {
				if src, e, ok := soleBase(col, bases); ok {
					switch src.tag() {
					case cellTagRed:
						cell = extendInline(src, e)
					case cellTagPooled:
						key = extendKey{src: src, base: e.Base, c: c}
						if key == sc.memoKey {
							cell = sc.memoCell
							sc.memoHits++
						}
					}
				}
			}
			if cell == 0 {
				m := first + chg.MemberID(j)
				cell = k.resolveDeclared(c, m, declared, func(x chg.ClassID) Result {
					if cc := col[x]; cc != 0 {
						return k.pool.View(cc)
					}
					return UndefinedResult()
				}, &sc.rs).Cell()
				if key.src != 0 {
					sc.memoKey, sc.memoCell = key, cell
				}
			}
			col[int(c)] = cell
			rs[idx] = cell
			idx++
		}
	}
	// Sparse clear: only the cells this block wrote, found by replaying
	// the nonzero masks — O(entries filled), not O(64·|N|).
	for _, c := range sc.touched {
		w := mm.Row(int(c)).Word(b - wordOff)
		for ; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			sc.cols[j*n+int(c)] = 0
		}
	}
}

// soleBase returns the one direct base edge whose cell in col is
// filled, with that cell; ok is false when no base or several bases
// contribute (the latter needs real dominance work).
func soleBase(col []Cell, bases []chg.Edge) (src Cell, e chg.Edge, ok bool) {
	for _, b := range bases {
		cc := col[b.Base]
		if cc == 0 {
			continue
		}
		if src != 0 {
			return 0, chg.Edge{}, false
		}
		src, e = cc, b
	}
	return src, e, src != 0
}

// extendInline handles the overwhelmingly common table entry without
// the full resolve machinery: the class doesn't declare the member and
// its sole contributing base holds an inline red (no static coverage,
// no tracked path). Such an entry is the base's Def pushed through
// Definition 15's ∘ operator, which on an inline cell is pure bit
// surgery: V stays if it is a class, becomes the base on a virtual
// edge, stays Ω otherwise. Returns 0 (never a valid cell) when the
// biased base id does not fit the word.
func extendInline(src Cell, e chg.Edge) Cell {
	if e.Kind == chg.Virtual && uint64(src)&cellFieldMask == 0 {
		// V = Ω crossing a virtual edge becomes the base class.
		vf, ok := biasID(e.Base)
		if !ok {
			return 0
		}
		return src | Cell(vf)
	}
	return src
}

// memberLowerBound returns the first index of a sorted member list
// whose id is ≥ m (len(ms) if none).
func memberLowerBound(ms []chg.MemberID, m chg.MemberID) int {
	lo, hi := 0, len(ms)
	for lo < hi {
		mid := (lo + hi) / 2
		if ms[mid] < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TableBuildWork quantifies, analytically, what each whole-table
// strategy must visit on a given hierarchy — the "visited entries"
// axis of experiment E14, computed from the membership matrix rather
// than by instrumenting the hot paths.
type TableBuildWork struct {
	Entries             int // Σ|Members[C]| — resolve calls every strategy makes
	Blocks              int // ⌈|M|/64⌉ member blocks
	BatchedClassVisits  int // (class, block) pairs with a nonzero mask — where the batched walk does work
	BatchedWalkSlots    int // Blocks·|N| — total mask probes of the batched walk
	UnprunedClassVisits int // |M|·|N| — class visits of the member-major full pass
}

// MeasureTableBuildWork computes the work profile of g's table build.
func MeasureTableBuildWork(g *chg.Graph) TableBuildWork {
	mm := MemberMatrix(g)
	n := g.NumClasses()
	m := g.NumMemberNames()
	w := TableBuildWork{
		Blocks:              (m + blockBits - 1) / blockBits,
		UnprunedClassVisits: m * n,
	}
	w.BatchedWalkSlots = w.Blocks * n
	for c := 0; c < n; c++ {
		row := mm.Row(c)
		w.Entries += row.Count()
		for i := 0; i < row.NumWords(); i++ {
			if row.Word(i) != 0 {
				w.BatchedClassVisits++
			}
		}
	}
	return w
}
