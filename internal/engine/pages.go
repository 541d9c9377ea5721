package engine

// Paged cell columns. Every cache column of a snapshot — the dominance
// cells and each backend's semColumn — is the same row-major
// numClasses × numMemberNames array of packed core.Cell words, split
// into fixed pages of pageWords words: cell i lives at
// pages[i>>pageShift][i&pageMask]. A warm hit is still one index into
// the (small, cache-resident) page table plus one atomic word load,
// with no allocation.
//
// Pages are what make a carry cost the edit instead of the
// hierarchy. The carry (carry.go) copies only the page table and
// privatises the pages that hold a cone cell; every other page is
// shared, by pointer, with the predecessor snapshot. Sharing is sound
// because a shared page holds no cone cell, so every cell on it has the
// same answer in both snapshots: whichever snapshot fills such a cell
// writes the same word (both resolve into the one shared payload pool,
// which deduplicates payloads), and the compare-and-swap from zero in
// publish makes the second writer a no-op.

import (
	"sync/atomic"
)

// pageShift fixes the page size at 4096 words (32 KiB, Go's largest
// small-object size class, so a page is one exact allocation). Smaller
// pages privatise fewer words per cone cell but grow the page table,
// which every carry copies whole, and the number of allocations;
// larger pages copy more words per cone cell. On the 20k-class ×
// 512-name Giant (2-vCPU Xeon, the first 600 ops of the seed-1 edit
// script, two runs per size) the carry part of a sync averaged
// 0.73–0.83 ms at 1024 words, 0.72 ms at 4096 and 0.89 ms at 16384;
// one member toggle's cone of ~190 cells falls on ~28 distinct
// 4096-word pages.
const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// cellPage is one page of packed cell words.
type cellPage [pageWords]uint64

// pagedCells is one cache column, held by value in its snapshot so a
// warm hit loads the page table straight from the snapshot. Pages are
// allocated one by one, never carved from a shared slab: over an edit
// session most pages get privatised at least once, and a slab kept
// alive by its few still-shared pages would hold the memory of all the
// others.
type pagedCells struct {
	pages []*cellPage
	size  int // numClasses × numMemberNames
	fills *fillCount
}

// fillCount counts a column's nonzero cells without a scan: fills and
// WarmAll bump it on every successful compare-and-swap, and a carry
// derives it as the predecessor's count minus the cells the cone
// cleared. A fill through a page shared with another snapshot bumps
// only the filler's count, so the figure can fall short of the true
// count but never exceed it. counted is false for columns adopted from
// external memory (mapped images), whose cells are counted once, by
// scanning, at their first carry.
//
// The shared add costs nothing measurable next to a fill: two
// goroutines filling every cell of a cold 4000-class × 64-name Giant
// (disjoint member ids, so one counter and adjacent words; 2-vCPU
// Xeon, ten alternating runs) took a median 431.5 ns a cell with the
// counter and 432.0 ns without it.
type fillCount struct {
	n       atomic.Int64
	counted bool
}

// numPages is the page count of a size-cell column.
func numPages(size int) int { return (size + pageWords - 1) >> pageShift }

// newPagedCells returns an all-zero (unfilled) column of size cells.
func newPagedCells(size int) pagedCells {
	p := pagedCells{pages: make([]*cellPage, numPages(size)), size: size, fills: &fillCount{counted: true}}
	for i := range p.pages {
		p.pages[i] = new(cellPage)
	}
	return p
}

// pagedCellsOver adopts a flat column without copying it: full pages
// point straight into flat (a mapped image keeps serving from the
// mapped bytes), and only a partial last page is copied to the heap.
func pagedCellsOver(flat []uint64) pagedCells {
	p := pagedCells{pages: make([]*cellPage, numPages(len(flat))), size: len(flat), fills: &fillCount{}}
	for i := range p.pages {
		lo := i << pageShift
		if lo+pageWords <= len(flat) {
			p.pages[i] = (*cellPage)(flat[lo : lo+pageWords])
			continue
		}
		pg := new(cellPage)
		copy(pg[:], flat[lo:])
		p.pages[i] = pg
	}
	return p
}

// word returns the address of cell i.
func (p *pagedCells) word(i int) *uint64 { return &p.pages[i>>pageShift][i&pageMask] }

// load reads cell i atomically; 0 means not filled yet.
func (p *pagedCells) load(i int) uint64 { return atomic.LoadUint64(p.word(i)) }

// publish stores w into cell i unless the cell is already filled, and
// counts the fill. A lost race leaves the word another writer stored,
// which is the same word: a cell's answer depends on its
// (class, member) alone.
func (p *pagedCells) publish(i int, w uint64) {
	if atomic.CompareAndSwapUint64(p.word(i), 0, w) {
		p.fills.n.Add(1)
	}
}

// flat returns an atomic word-for-word copy of the column in the flat
// row-major layout.
func (p *pagedCells) flat() []uint64 {
	out := make([]uint64, p.size)
	for i := range out {
		out[i] = p.load(i)
	}
	return out
}

// count scans the column for filled cells.
func (p *pagedCells) count() int {
	n := 0
	for i := 0; i < p.size; i++ {
		if p.load(i) != 0 {
			n++
		}
	}
	return n
}

// filledCount returns the fill counter, scanning once instead when the
// column was adopted uncounted.
func (p *pagedCells) filledCount() int {
	if !p.fills.counted {
		return p.count()
	}
	return int(p.fills.n.Load())
}

// clonePage returns a private copy of pg. The source may be a live
// predecessor's page with fills in flight, so it is read atomically.
func clonePage(pg *cellPage) *cellPage {
	cp := new(cellPage)
	for i := range pg {
		cp[i] = atomic.LoadUint64(&pg[i])
	}
	return cp
}
