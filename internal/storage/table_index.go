package storage

import (
	"fmt"
	"slices"
	"sort"

	"lambdadb/internal/catalog"
)

// tableIndex binds an index definition to its structure and column ordinal.
// Guarded by the owning table's mutex.
type tableIndex struct {
	def  IndexDef
	col  int
	impl indexImpl
}

// AddIndex validates def against the table, builds the structure over every
// existing physical row, and installs it (see newIndex, installIndex).
//
// It performs no logging: Store.CreateIndex is the transactional path.
// Calling AddIndex directly is reserved for recovery (image load), where
// the definition comes from the checkpoint image.
func (t *Table) AddIndex(def IndexDef) error {
	ix, err := t.newIndex(def)
	if err != nil {
		return err
	}
	t.installIndex(ix)
	return nil
}

// newIndex validates def against the table and returns its empty structure.
func (t *Table) newIndex(def IndexDef) (*tableIndex, error) {
	if _, ok := t.indexDef(def.Name); ok {
		return nil, fmt.Errorf("storage: index %q already exists on table %q", def.Name, t.name)
	}
	col := t.schema.IndexOf(def.Column)
	if col < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.name, def.Column)
	}
	impl, err := newIndexImpl(def.Kind, t.schema[col].Type)
	if err != nil {
		return nil, err
	}
	def.Table = t.name
	return &tableIndex{def: def, col: col, impl: impl}, nil
}

// installIndex fills ix from every physical row and installs it, both under
// the table lock, so no concurrent append can slip between build and install.
func (t *Table) installIndex(ix *tableIndex) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix.impl.insert(t.cols[ix.col], 0)
	t.indexes = append(t.indexes, ix)
}

// dropIndex removes the named index.
func (t *Table) dropIndex(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.indexes = slices.DeleteFunc(t.indexes, func(ix *tableIndex) bool { return ix.def.Name == name })
}

// indexDef returns the named index's definition, if the table has it.
func (t *Table) indexDef(name string) (IndexDef, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ix := t.indexLocked(name); ix != nil {
		return ix.def, true
	}
	return IndexDef{}, false
}

// IndexDefs returns the table's index definitions, sorted by name (the
// persist layer relies on the deterministic order).
func (t *Table) IndexDefs() []IndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexDef, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, ix.def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Indexes implements catalog.IndexedRelation.
func (t *Table) Indexes() []catalog.IndexInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]catalog.IndexInfo, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, catalog.IndexInfo{
			Name:    ix.def.Name,
			Column:  ix.def.Column,
			Kind:    ix.def.Kind.String(),
			Keys:    ix.impl.keys(),
			Entries: ix.impl.entries(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// indexLocked returns the named index; the caller holds t.mu.
func (t *Table) indexLocked(name string) *tableIndex {
	for _, ix := range t.indexes {
		if ix.def.Name == name {
			return ix
		}
	}
	return nil
}

// IndexCursor implements catalog.IndexedRelation. It checks that the index
// exists and serves the probe; the probe itself runs on the first Next.
func (t *Table) IndexCursor(index string, probe catalog.IndexProbe, snapshot uint64) (catalog.Cursor, error) {
	t.mu.RLock()
	ix := t.indexLocked(index)
	t.mu.RUnlock()
	if ix == nil {
		return nil, fmt.Errorf("storage: no index %q on table %q", index, t.name)
	}
	if probe.Eq == nil && ix.def.Kind != OrderedIndex {
		return nil, fmt.Errorf("storage: index %q on table %q does not support range probes", index, t.name)
	}
	return &cursor{t: t, snapshot: snapshot, index: ix, probe: probe}, nil
}

// hitsLocked probes ix, filters the candidate rows by MVCC visibility at
// snapshot, and returns them in ascending physical order. Probes never
// mutate the structure, so the caller's read lock suffices; an index dropped
// since the cursor was made is no longer appended to, so it still serves the
// rows created at or before snapshot.
func (t *Table) hitsLocked(ix *tableIndex, p catalog.IndexProbe, snapshot uint64) []int {
	var cand []int32
	if p.Eq != nil {
		cand = ix.impl.probeEq(*p.Eq, nil)
	} else {
		cand, _ = ix.impl.probeRange(p.Lo, p.Hi, p.LoInc, p.HiInc, nil)
	}
	vis := make([]int, 0, len(cand))
	for _, r := range cand {
		if t.visibleLocked(int(r), snapshot) {
			vis = append(vis, int(r))
		}
	}
	slices.Sort(vis)
	return vis
}
