package filevol

import (
	"errors"
	"fmt"
	"io"
	"maps"

	"lobstore/internal/disk"
)

// crashLog records what a power cut would un-do: for every page written
// since the last completed durability barrier, the page's pre-image (or the
// fact that the page did not exist), plus each touched file's size at its
// first un-synced write. Rolling the log back leaves the files exactly as
// if the kernel had never flushed any of those writes — the pessimal but
// legal crash outcome the recovery protocol must survive.
//
// Only the first write of a page per barrier interval is logged: later
// writes to the same page are overwriting data that is already doomed.
type crashLog struct {
	pages map[pageKey][]byte // nil slice: page was past EOF before the write
	sizes map[disk.AreaID]sizeEntry
}

type pageKey struct {
	area disk.AreaID
	off  int64
}

type sizeEntry struct {
	a    *areaFile
	size int64
}

func newCrashLog() *crashLog {
	return &crashLog{
		pages: make(map[pageKey][]byte),
		sizes: make(map[disk.AreaID]sizeEntry),
	}
}

// beforeWrite captures the pre-image of the n bytes at off in area (page
// granular: n is a multiple of pageSize) before they are overwritten.
func (l *crashLog) beforeWrite(area disk.AreaID, a *areaFile, off int64, n, pageSize int) error {
	if _, seen := l.sizes[area]; !seen {
		st, err := a.f.Stat()
		if err != nil {
			return fmt.Errorf("filevol: crash log stat area %d: %w", area, err)
		}
		l.sizes[area] = sizeEntry{a: a, size: st.Size()}
	}
	oldSize := l.sizes[area].size
	for p := int64(0); p < int64(n); p += int64(pageSize) {
		k := pageKey{area: area, off: off + p}
		if _, seen := l.pages[k]; seen {
			continue
		}
		if k.off >= oldSize {
			// The page is past the pre-barrier EOF; the size rollback's
			// truncate removes it, no bytes to keep.
			l.pages[k] = nil
			continue
		}
		img := make([]byte, pageSize)
		m, err := a.f.ReadAt(img, k.off)
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("filevol: crash log read area %d off %d: %w", area, k.off, err)
		}
		clear(img[m:])
		l.pages[k] = img
	}
	return nil
}

// clear drops the log: everything recorded is now durable.
func (l *crashLog) clear() {
	for k := range l.pages {
		delete(l.pages, k)
	}
	for k := range l.sizes {
		delete(l.sizes, k)
	}
}

// seal ends the current barrier interval: it hands back the interval's
// entries, to be dropped once its flush succeeds, and leaves the log empty
// for the writes that land while that flush is in flight.
func (l *crashLog) seal() *crashLog {
	sealed := &crashLog{pages: l.pages, sizes: l.sizes}
	*l = *newCrashLog()
	return sealed
}

// reopen folds a sealed interval whose flush failed back into the log. Its
// entries predate the current interval's, so they win: the failed flush
// made nothing durable, and a power cut must restore the older images.
func (l *crashLog) reopen(sealed *crashLog) {
	maps.Copy(l.pages, sealed.pages)
	maps.Copy(l.sizes, sealed.sizes)
}

// rollback restores every logged pre-image and truncates each touched file
// back to its pre-barrier size, then clears the log.
func (l *crashLog) rollback(v *Volume) error {
	for k, img := range l.pages {
		if img == nil {
			continue // removed by the truncate below
		}
		a, err := v.area(k.area)
		if err != nil {
			return err
		}
		if _, err := a.f.WriteAt(img, k.off); err != nil {
			return fmt.Errorf("filevol: restoring area %d off %d: %w", k.area, k.off, err)
		}
	}
	for area, e := range l.sizes {
		if err := e.a.f.Truncate(e.size); err != nil {
			return fmt.Errorf("filevol: truncating area %d to %d: %w", area, e.size, err)
		}
		e.a.size = e.size
		// The rolled-back state must survive process death in a real crash
		// test, and a dirty flag would otherwise let Close fsync dropped
		// writes back in.
		e.a.dirty = false
	}
	if err := l.fsyncAll(v); err != nil {
		return err
	}
	l.clear()
	return nil
}

// fsyncAll makes the rolled-back state itself durable so the "crashed"
// files can be reopened by a fresh process.
func (l *crashLog) fsyncAll(v *Volume) error {
	for id, a := range v.areas {
		if a.f == nil {
			continue
		}
		if err := a.f.Sync(); err != nil {
			return fmt.Errorf("filevol: sync rolled-back area %d: %w", id, err)
		}
	}
	return nil
}
