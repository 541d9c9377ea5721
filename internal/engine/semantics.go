package engine

// Per-backend cache columns. A snapshot built WithSemantics serves the
// same hierarchy under several resolution backends at once: the
// dominance kernel keeps the primary cell array, and every extra
// backend gets a column — its own paged cells and shard locks, over
// the snapshot's one shared payload pool. Columns use the identical
// fill discipline as the primary cache (atomic warm reads, per-member
// shard locks, zero word = unfilled), so every property the engine
// guarantees for dominance — lock-free hits, fill-once, immutability
// after publish, warm carry across republishes — holds per backend.

import (
	"sync"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/semantics"
)

// semColumn is one extra backend's cache column.
type semColumn struct {
	id        core.SemanticsID
	sem       core.Semantics
	cells     pagedCells
	fillLocks [shardCount]sync.Mutex
	tableOnce sync.Once
	table     *core.Table
}

// newColumns materializes one column per backend the kernel's options
// requested, each resolving into the kernel's (= the snapshot's)
// payload pool.
func newColumns(k *core.Kernel) ([]*semColumn, error) {
	ids := k.ExtraSemantics()
	if len(ids) == 0 {
		return nil, nil
	}
	g := k.Graph()
	size := g.NumClasses() * g.NumMemberNames()
	cols := make([]*semColumn, 0, len(ids))
	for _, id := range ids {
		sem, err := semantics.New(id, g, k.Pool())
		if err != nil {
			return nil, err
		}
		cols = append(cols, &semColumn{id: id, sem: sem, cells: newPagedCells(size)})
	}
	return cols, nil
}

// Semantics returns every backend this snapshot serves, dominance
// first, then the extra columns in the order WithSemantics listed
// them.
func (s *Snapshot) Semantics() []core.SemanticsID {
	ids := make([]core.SemanticsID, 0, 1+len(s.sems))
	ids = append(ids, core.SemDominance)
	for _, col := range s.sems {
		ids = append(ids, col.id)
	}
	return ids
}

func (s *Snapshot) column(id core.SemanticsID) *semColumn {
	for _, col := range s.sems {
		if col.id == id {
			return col
		}
	}
	return nil
}

// LookupSem resolves member m in the context of class c under the
// named backend, with the same concurrency contract as Lookup (which
// it is, for the dominance id). ok is false when the snapshot was not
// built to serve id.
func (s *Snapshot) LookupSem(id core.SemanticsID, c chg.ClassID, m chg.MemberID) (core.Result, bool) {
	if id == core.SemDominance {
		return s.Lookup(c, m), true
	}
	col := s.column(id)
	if col == nil {
		return core.Result{}, false
	}
	if !s.k.Graph().Valid(c) || m < 0 || int(m) >= s.numMembers {
		return core.UndefinedResult(), true
	}
	if w := col.cells.load(int(c)*s.numMembers + int(m)); w != 0 {
		return s.pool.View(core.Cell(w)), true
	}
	return s.fillSem(col, c, m), true
}

// fillSem is the column miss path — fill's exact discipline against
// the column's cells and the column's shard locks. Backends that
// ignore the get callback (C3, gxx) fill one cell per miss; inductive
// backends fill their recursion like the dominance kernel does.
func (s *Snapshot) fillSem(col *semColumn, c chg.ClassID, m chg.MemberID) core.Result {
	sh := &col.fillLocks[uint32(m)%shardCount]
	sh.Lock()
	defer sh.Unlock()

	var lookup func(x chg.ClassID) core.Result
	lookup = func(x chg.ClassID) core.Result {
		i := int(x)*s.numMembers + int(m)
		if w := col.cells.load(i); w != 0 {
			return s.pool.View(core.Cell(w))
		}
		r := col.sem.Resolve(x, m, lookup)
		col.cells.publish(i, uint64(r.Cell()))
		return r
	}
	return lookup(c)
}

// TableSem returns the named backend's eagerly tabulated lookup
// function, building it on first use (the dominance id returns
// Table()). Every backend's table packs cells over the snapshot's one
// shared pool. ok is false when the snapshot does not serve id.
func (s *Snapshot) TableSem(id core.SemanticsID) (*core.Table, bool) {
	if id == core.SemDominance {
		return s.Table(), true
	}
	col := s.column(id)
	if col == nil {
		return nil, false
	}
	col.tableOnce.Do(func() { col.table = core.BuildSemTable(col.sem, 0) })
	return col.table, true
}

// SemCachedEntries reports how many lazy-cache cells the named
// backend's column currently holds (CachedEntries for the dominance
// id). For tests and observability.
func (s *Snapshot) SemCachedEntries(id core.SemanticsID) int {
	if id == core.SemDominance {
		return s.CachedEntries()
	}
	col := s.column(id)
	if col == nil {
		return 0
	}
	return col.cells.count()
}
