package engine

import (
	"sync"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// shardCount is the number of writer locks per snapshot. Misses are
// striped by member name, the same axis along which Figure 8's
// dataflow decomposes (lookup[C,m] reads only entries for the same m),
// so one miss fills its whole recursion under a single lock. A modest
// power of two keeps the footprint small while making collisions
// between unrelated member names unlikely.
const shardCount = 32

// Snapshot is one immutable, versioned view of a hierarchy: a
// chg.Graph plus a concurrency-safe memoized lookup cache driving the
// shared core.Kernel. Any number of goroutines may call Lookup
// concurrently; a snapshot never changes once published, so readers
// holding one are isolated from later engine updates.
//
// The cache is a dense numClasses×numMemberNames array of packed
// core.Cell words, split into fixed pages (pages.go) and read and
// written with sync/atomic word operations: a warm hit is one page
// table index and one atomic word load — no locking, no hashing, and
// no per-result allocation, since the word itself encodes the common
// results and rare payloads live interned in the kernel's
// per-snapshot pool. The zero word means "not filled yet" (core never
// encodes a result as zero). Writers fill misses under a
// per-member-name shard lock and publish with a compare-and-swap from
// zero; each cell is computed once per snapshot. Pages the last edit
// could not affect are shared with the predecessor snapshot, so a
// cell on such a page may also be filled, with the same word, by that
// snapshot's readers.
type Snapshot struct {
	name    string
	version uint64
	k       *core.Kernel
	pool    *core.Pool

	numMembers int
	cells      pagedCells
	fillLocks  [shardCount]sync.Mutex

	// sems holds one cache column per extra resolution backend the
	// snapshot was built to serve (core.WithSemantics); nil for
	// dominance-only snapshots. See semantics.go.
	sems []*semColumn

	// carry records what UpdateCarried seeded this snapshot with; the
	// zero value for cold snapshots.
	carry CarryStats

	// weigh gates the O(cells) pool weigh on the carry path (see
	// carriedSnapshot).
	weigh weighState

	tableOnce sync.Once
	table     *core.Table
}

// NewSnapshot wraps g in a standalone snapshot (version 1, no engine).
// It panics if g is nil (with the same message as core.NewKernel) or
// if WithSemantics named a backend the registry does not know.
func NewSnapshot(g *chg.Graph, opts ...core.Option) *Snapshot {
	s, err := newSnapshot("", 1, core.NewKernel(g, opts...))
	if err != nil {
		panic("engine: " + err.Error())
	}
	return s
}

func newSnapshot(name string, version uint64, k *core.Kernel) (*Snapshot, error) {
	g := k.Graph()
	numM := g.NumMemberNames()
	cols, err := newColumns(k)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		name:       name,
		version:    version,
		k:          k,
		pool:       k.Pool(),
		numMembers: numM,
		cells:      newPagedCells(g.NumClasses() * numM),
		sems:       cols,
	}, nil
}

// Name returns the engine registration name ("" for standalone
// snapshots).
func (s *Snapshot) Name() string { return s.name }

// Version returns the snapshot's version, starting at 1 and bumped by
// every engine update of the same name.
func (s *Snapshot) Version() uint64 { return s.version }

// Graph returns the snapshot's immutable hierarchy.
func (s *Snapshot) Graph() *chg.Graph { return s.k.Graph() }

// Kernel returns the shared algorithm kernel.
func (s *Snapshot) Kernel() *core.Kernel { return s.k }

// Lookup resolves member m in the context of class c — the same
// memoising lazy algorithm as core.Analyzer.Lookup, but safe for
// concurrent callers: hits are answered from an atomically published
// cell without locking, and a miss takes only its member's shard lock
// while it fills the cell (and the recursive cells it needed) once.
func (s *Snapshot) Lookup(c chg.ClassID, m chg.MemberID) core.Result {
	if !s.k.Graph().Valid(c) || m < 0 || int(m) >= s.numMembers {
		return core.UndefinedResult()
	}
	if w := s.cells.load(int(c)*s.numMembers + int(m)); w != 0 {
		return s.pool.View(core.Cell(w))
	}
	return s.fill(c, m)
}

// fill computes lookup[c,m] under the member's shard lock, publishing
// every cell the computation produced as it goes. All recursive
// dependencies of (c,m) are entries for the same member name, hence
// under the same lock: one acquisition covers the whole recursion, and
// the double-check below makes each cell's computation happen once per
// snapshot even under contention. Publishing a cell is an atomic
// compare-and-swap of the packed result; any rare payload was interned
// in the snapshot's pool before the word existed, so readers that
// observe the word also observe the fully initialised payload behind
// its index.
func (s *Snapshot) fill(c chg.ClassID, m chg.MemberID) core.Result {
	sh := &s.fillLocks[uint32(m)%shardCount]
	sh.Lock()
	defer sh.Unlock()

	var lookup func(x chg.ClassID) core.Result
	lookup = func(x chg.ClassID) core.Result {
		i := int(x)*s.numMembers + int(m)
		if w := s.cells.load(i); w != 0 {
			// Already published — possibly by a writer ahead of us
			// while we waited on the lock.
			return s.pool.View(core.Cell(w))
		}
		r := s.k.Resolve(x, m, lookup)
		s.cells.publish(i, uint64(r.Cell()))
		return r
	}
	return lookup(c)
}

// LookupByName resolves a member by class and member name; it returns
// an Undefined result if either name is unknown.
func (s *Snapshot) LookupByName(class, member string) core.Result {
	g := s.k.Graph()
	c, ok := g.ID(class)
	if !ok {
		return core.UndefinedResult()
	}
	m, ok := g.MemberID(member)
	if !ok {
		return core.UndefinedResult()
	}
	return s.Lookup(c, m)
}

// Table returns the snapshot's eagerly tabulated lookup function,
// building it on first use. The build runs the kernel's support-pruned
// batched tabulation once (all available workers); the resulting Table
// is immutable and shared by all callers.
func (s *Snapshot) Table() *core.Table {
	s.tableOnce.Do(func() { s.table = s.k.BuildTableBatched(0) })
	return s.table
}

// EachTableEntry calls fn for every (class, member) pair of the
// snapshot's tabulated lookup function — classes in topological order
// (the graph's Topo, fixed at construction), member names in
// ascending id order within each class. This is the one deterministic
// iteration order every whole-table consumer (chglint's rules, the
// ambiguity listing) shares.
//
// Ordering contract: the sequence of (c, m, r) triples is a pure
// function of the snapshot's hierarchy — identical across calls,
// across goroutines, and across processes, regardless of what the
// lazy Lookup cache holds or which concurrent Lookup/LookupBatch
// fills are in flight. Iteration reads only the eager Table (built
// once, on first use, from the immutable graph; never from the lazy
// cells), so concurrent fills cannot interleave with or reorder it.
// The results themselves are equally stable: a snapshot's cells are
// computed once and never change. The determinism test in
// tableiter_test.go pins both properties under a concurrent fill
// storm and on a fully warmed snapshot.
//
// fn must not call back into EachTableEntry's own Table build
// (Table/TableSem are safe — the build is complete by the time fn
// runs), and a slow fn simply slows this caller; it never blocks
// Lookup readers or fills.
func (s *Snapshot) EachTableEntry(fn func(c chg.ClassID, m chg.MemberID, r core.Result)) {
	t := s.Table()
	for _, c := range s.k.Graph().Topo() {
		for _, m := range t.Members(c) {
			fn(c, m, t.Lookup(c, m))
		}
	}
}

// CachedEntries reports how many lookup results the lazy cache
// currently holds (the table built by Table is not counted). Intended
// for tests and observability.
func (s *Snapshot) CachedEntries() int { return s.cells.count() }

// Pool returns the snapshot's payload pool — the per-snapshot intern
// table for rare result payloads. Exposed for observability (the E13
// experiment reports its size and deduplication rate).
func (s *Snapshot) Pool() *core.Pool { return s.pool }
