package engine

// Image-backed snapshots. internal/image persists a snapshot's warm
// state — graph, payload pool, and every backend's packed-cell
// column — as a relocatable flat-buffer file; this file is the engine
// side of that contract: exporting a live snapshot's columns for the
// writer, and reassembling a Snapshot around columns that alias
// memory-mapped bytes. A snapshot built from mapped columns serves
// warm hits straight out of the map (its cell pages point into the
// mapped bytes: one atomic word load, zero deserialization); misses
// fill cells with the usual atomic stores, which land in the map's
// private copy-on-write pages, and republishes carry from it exactly
// like from any heap snapshot — sharing the mapped pages the edit did
// not touch.

import (
	"fmt"
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/semantics"
)

// CellColumn is one resolution backend's dense cell array, in the
// snapshot's row-major (class × member) layout. The dominance column
// is always present and always first.
type CellColumn struct {
	ID    core.SemanticsID
	Cells []uint64
}

// CopyColumns returns an atomic copy of every cache column the
// snapshot serves, dominance first — the consistent read an image
// writer needs while concurrent fills may be publishing cells. Each
// word is loaded atomically; a torn column is impossible, and any
// pooled payload a copied word references is already fully interned
// (cells publish after their payloads).
func (s *Snapshot) CopyColumns() []CellColumn {
	out := make([]CellColumn, 0, 1+len(s.sems))
	out = append(out, CellColumn{ID: core.SemDominance, Cells: s.cells.flat()})
	for _, col := range s.sems {
		out = append(out, CellColumn{ID: col.id, Cells: col.cells.flat()})
	}
	return out
}

// warmWorkers is the block-fill parallelism WarmAll hands the streamed
// build. One worker: the fill's remaining cost is mostly pool
// interning, serialised on the pool's one mutex, so a second worker
// contends for it instead of adding throughput. On a 2-vCPU host,
// warming the 20k-class Giant with static rule and paths (the perfbench
// compile-giant snapshot) took 2.98–3.46 s serially against
// 3.20–3.85 s with two workers, six alternating runs each.
const warmWorkers = 1

// WarmAll fills every (class, member) cell of every backend column —
// the eager warm-up an image save performs so the persisted cache
// answers the whole table without a single miss. Each column is built
// once by the kernel's block walk (core.BuildSemTableStreamed over the
// snapshot's own pool; C3 and gxx fill a class row per call) and
// scattered into the paged cells in one pass: member cells take the
// table's word, every other cell the Undefined word. The table is
// dropped afterwards — Table and TableSem stay lazy — so warming
// leaves nothing alive beyond the cells and their pooled payloads.
//
// Safe beside concurrent Lookup, LookupSem, LookupBatch and WarmAll
// calls: every store is a compare-and-swap from zero, and a cell's
// word depends on its (class, member) alone — the shared pool
// deduplicates payloads, so a lazy fill and the scatter racing on one
// cell write the same word, and whichever comes second changes
// nothing.
func (s *Snapshot) WarmAll() {
	s.warmColumn(s.k, &s.cells)
	for _, col := range s.sems {
		s.warmColumn(col.sem, &col.cells)
	}
}

// warmColumn builds sem's whole table and scatters it into cells,
// counting its successful stores once at the end.
func (s *Snapshot) warmColumn(sem core.Semantics, cells *pagedCells) {
	t, _ := core.BuildSemTableStreamed(sem, core.StreamOptions{Workers: warmWorkers})
	undef := uint64(core.UndefinedResult().Cell())
	n := s.k.Graph().NumClasses()
	stored := 0
	for c := 0; c < n; c++ {
		base := c * s.numMembers
		ms, rs := t.Row(chg.ClassID(c))
		i := 0
		for m := 0; m < s.numMembers; m++ {
			w := undef
			if i < len(ms) && int(ms[i]) == m {
				w = uint64(rs[i])
				i++
			}
			if atomic.CompareAndSwapUint64(cells.word(base+m), 0, w) {
				stored++
			}
		}
	}
	cells.fills.n.Add(int64(stored))
}

// NewSnapshotFromParts assembles a standalone snapshot (version 1, no
// engine) around externally produced cache columns — the image
// loader's constructor. The columns must be dominance-first, each of
// length NumClasses×NumMemberNames, packed over pool; they are adopted
// without copying (only a partial last page is copied), so mapped
// columns serve from the mapped bytes.
// trackPaths/staticRule must match the flags the cells were resolved
// under (the image header records them).
func NewSnapshotFromParts(g *chg.Graph, pool *core.Pool, cols []CellColumn, trackPaths, staticRule bool) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: snapshot from parts: nil graph")
	}
	if pool == nil {
		return nil, fmt.Errorf("engine: snapshot from parts: nil pool")
	}
	if len(cols) == 0 || cols[0].ID != core.SemDominance {
		return nil, fmt.Errorf("engine: snapshot from parts: first column must be %q", core.SemDominance)
	}
	numM := g.NumMemberNames()
	want := g.NumClasses() * numM
	opts := []core.Option{core.WithPool(pool)}
	if trackPaths {
		opts = append(opts, core.WithTrackPaths())
	}
	if staticRule {
		opts = append(opts, core.WithStaticRule())
	}
	sems := make([]*semColumn, 0, len(cols)-1)
	for i, col := range cols {
		if len(col.Cells) != want {
			return nil, fmt.Errorf("engine: snapshot from parts: column %q has %d cells, want %d", col.ID, len(col.Cells), want)
		}
		if i == 0 {
			continue
		}
		if col.ID == core.SemDominance {
			return nil, fmt.Errorf("engine: snapshot from parts: duplicate %q column", core.SemDominance)
		}
		sem, err := semantics.New(col.ID, g, pool)
		if err != nil {
			return nil, err
		}
		sems = append(sems, &semColumn{id: col.ID, sem: sem, cells: pagedCellsOver(col.Cells)})
		opts = append(opts, core.WithSemantics(col.ID))
	}
	return &Snapshot{
		version:    1,
		k:          core.NewKernel(g, opts...),
		pool:       pool,
		numMembers: numM,
		cells:      pagedCellsOver(cols[0].Cells),
		sems:       sems,
	}, nil
}

// Adopt registers an existing snapshot (typically one loaded from a
// mapped image) as the current version of name, so later Update /
// UpdateCarried calls republish on top of it — the warm-start path: a
// process restarts, maps yesterday's image, adopts it, and carries its
// cache forward through the day's edits. The adopted snapshot's
// options (semantics columns, flags) become the name's options. It is
// an error to adopt over an already-registered name or a nil snapshot.
func (e *Engine) Adopt(name string, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("engine: Adopt(%q) with a nil snapshot", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.entries[name]; dup {
		return fmt.Errorf("engine: hierarchy %q already registered (use Update to publish a new version)", name)
	}
	k := s.k
	opts := []core.Option{core.WithSemantics(k.ExtraSemantics()...)}
	if k.TrackPaths() {
		opts = append(opts, core.WithTrackPaths())
	}
	if k.StaticRule() {
		opts = append(opts, core.WithStaticRule())
	}
	adopted := &Snapshot{
		name:       name,
		version:    1,
		k:          s.k,
		pool:       s.pool,
		numMembers: s.numMembers,
		cells:      s.cells,
		sems:       s.sems,
		carry:      s.carry,
	}
	e.entries[name] = &entry{opts: opts, version: 1, snap: adopted}
	e.order = append(e.order, name)
	return nil
}
