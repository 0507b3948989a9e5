// Package lake is the persistent, append-only observation store — the
// on-disk successor to holding a whole dataset.Dataset in memory. Writers
// (campaign runs, live crawlers, JSONL imports) append observations into
// an open columnar builder that is sealed into immutable segment files
// (zone maps + delta/dictionary-compressed columns + CRC footers, see
// segment.go); torrent and user records ride in JSONL meta files reusing
// the dataset codec. The source of truth is an append-only commit
// journal (format v2, see internal/lake/journal and commits.go): every
// flush, import, compaction or salvage appends one fsynced, CRC- and
// chain-protected record, Open replays the journal to head (periodic
// checkpoint records bound replay cost), and any committed version
// remains addressable — Lake.OpenAt and Predicate.AsOf pin scans to
// historical states while ingest continues. Lakes written under format
// v1 (single-version MANIFEST) migrate to the journal on first open with
// byte-identical Materialize results. Readers scan committed segments in
// parallel with predicate pushdown (see scan.go) while a compactor folds
// small segments together in canonical Merge order (see compact.go),
// committing each fold as a retire+add record. One process owns a lake
// directory at a time; within that process every method is safe for
// concurrent use.
package lake

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/netip"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake/journal"
	"btpub/internal/vfs"
)

// maxTorrentID mirrors the dataset codec's bound: torrent IDs are dense
// int32 sequence numbers everywhere downstream.
const maxTorrentID = 1<<31 - 1

// Options tunes a lake handle.
type Options struct {
	// FlushRows seals the open builder into a segment once it holds this
	// many observations (default 1<<17). Small values produce many small
	// segments — correct, just compaction fodder.
	FlushRows int
	// Compact configures the background compactor.
	Compact CompactOptions
	// Salvage lets Open drop segments whose files are missing or
	// truncated (logged, removed from the manifest) instead of failing.
	// Data in the dropped segments is lost; everything else stays
	// readable.
	Salvage bool
	// CheckpointEvery bounds journal replay cost: after this many delta
	// commits since the last checkpoint, the next commit is followed by
	// a checkpoint record snapshotting the full state (default 64).
	CheckpointEvery int
	// Retain keeps files retired by compaction on disk instead of
	// vacuuming them, so OpenAt / as_of scans of pre-compaction versions
	// keep working. Off by default: history remains queryable back to
	// the last compaction, and older pins fail with
	// *VersionUnavailableError.
	Retain bool
	// FS overrides the filesystem the lake does all its I/O through.
	// Nil means the real OS filesystem rooted at the lake directory;
	// tests substitute vfs/faultfs to inject I/O errors, torn writes and
	// crashes deterministically.
	FS vfs.FS
}

func (o *Options) setDefaults() {
	if o.FlushRows <= 0 {
		o.FlushRows = 1 << 17
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	o.Compact.setDefaults()
}

// builder is the open, mutable segment.
type builder struct {
	store dataset.ObsStore
	zone  zone
}

// Lake is a handle on one lake directory.
type Lake struct {
	dir string
	fs  vfs.FS
	opt Options

	// mu guards the live state, the journal, the open builder, the
	// pending meta records and commit sequencing.
	mu      sync.Mutex
	man     *manifest
	jr      *journal.Journal
	hist    []histRec // replayed + appended journal records, for time travel
	ckptVer uint64    // version of the latest checkpoint record (0 = none)
	sinceCk int       // delta commits since the latest checkpoint
	bld     *builder
	pendT   []*dataset.TorrentRecord
	pendU   []dataset.UserRecord
	dead    []string // retired by compaction, deleted once no scan is active
	closed  bool
	lastErr error

	// scanMu: readers hold RLock while touching committed files; vacuum
	// takes Lock to delete retired ones, so a scan never sees a file
	// disappear mid-read.
	scanMu sync.RWMutex

	compacting atomic.Bool
	wg         sync.WaitGroup

	// idxCache memoizes decoded microindex files by name. Index files
	// are immutable once committed, so entries never go stale; retired
	// files are evicted when their segments are vacuumed.
	idxCache sync.Map // file name -> *microindex

	segsRead       atomic.Int64
	segsSkipped    atomic.Int64
	segsSkippedIdx atomic.Int64
}

// Open opens (or creates) the lake in dir. Crash recovery happens here:
// a torn journal tail is repaired (a crash mid-append can only lose the
// record being written, never a committed one), the journal is replayed
// into the live state from its latest checkpoint, a v1 MANIFEST found
// without a journal is migrated into the journal's opening checkpoint,
// segment and meta files not referenced by committed state are deleted,
// and every referenced segment is size-checked against its entry
// (Options.Salvage turns a failing segment into a logged drop — committed
// as a retire record — instead of an error).
func Open(dir string, opt Options) (*Lake, error) {
	opt.setDefaults()
	fsys := opt.FS
	if fsys == nil {
		fsys = vfs.OS(dir)
	}
	if err := fsys.MkdirAll(); err != nil {
		return nil, err
	}
	jr, err := journal.Open(fsys, journal.Name)
	if err != nil {
		return nil, err
	}
	var man *manifest
	var hist []histRec
	if jr.Len() > 0 {
		if hist, err = decodeHist(jr.Records()); err != nil {
			return nil, err
		}
		if man, err = foldHist(hist, len(hist), false); err != nil {
			return nil, err
		}
		// A MANIFEST beside a live journal is a migration leftover (the
		// crash hit after the opening checkpoint was synced but before the
		// old file was removed). The journal wins.
		_ = fsys.Remove(manifestName)
	} else {
		v1, ok, err := loadManifest(fsys)
		if err != nil {
			return nil, err
		}
		switch {
		case !ok:
			man = &manifest{Format: formatV2}
		default:
			// Migrate: the v1 state becomes the journal's opening
			// checkpoint. Only after that record is synced does the
			// MANIFEST go away — a crash in between leaves both, and the
			// journal wins on the next open.
			man = v1
			man.Format = formatV2
			if man.Version == 0 {
				man.Version = 1
			}
			pay := checkpointPayload(man)
			data, err := json.Marshal(pay)
			if err != nil {
				return nil, err
			}
			rec := journal.Record{Checkpoint: true, Version: man.Version, Payload: data}
			if err := jr.Append(rec); err != nil {
				return nil, fmt.Errorf("lake: migrating v1 manifest to journal: %w", err)
			}
			_ = fsys.Remove(manifestName)
			_ = fsys.SyncDir()
			hist = append(hist, histRec{version: man.Version, checkpoint: true, pay: pay})
		}
	}
	// Validate referenced segments before touching anything else, building
	// the salvage commit's deltas as entries change.
	var keep []segMeta
	var retire []string
	var readd []segMeta
	for _, s := range man.Segments {
		// A missing or resized microindex never loses data: drop the
		// reference so scans of this segment fall back to bloom pruning,
		// committed below as a retire + re-add of the same file.
		degraded := false
		if s.Index != "" {
			isz, err := fsys.Size(s.Index)
			if err != nil || isz != s.IndexBytes {
				log.Printf("lake: dropping microindex %s for %s (missing or resized); bloom pruning only", s.Index, s.File)
				s.Index, s.IndexBytes = "", 0
				degraded = true
			}
		}
		sz, err := fsys.Size(s.File)
		switch {
		case err == nil && sz == s.Bytes:
			if degraded {
				// Rewritten entries move to the tail, exactly as replaying
				// the retire + re-add record orders them.
				retire = append(retire, s.File)
				readd = append(readd, s)
			} else {
				keep = append(keep, s)
			}
			continue
		case err == nil:
			err = &CorruptSegmentError{File: s.File, Reason: fmt.Sprintf("size %d, manifest says %d", sz, s.Bytes)}
		case os.IsNotExist(err):
			err = &CorruptSegmentError{File: s.File, Reason: "missing"}
		}
		if !opt.Salvage {
			return nil, err
		}
		log.Printf("lake: salvage: dropping segment %s (%v, %d observations lost)", s.File, err, s.Rows)
		man.Rows -= int64(s.Rows)
		retire = append(retire, s.File)
	}
	man.Segments = append(keep, readd...)
	for _, f := range man.Meta {
		if _, err := fsys.Size(f); err != nil {
			return nil, fmt.Errorf("lake: meta file %s: %w", f, err)
		}
	}
	// Remove files a crash orphaned (written but never committed) and any
	// leftover tmp files. Only files this package names are touched; with
	// Retain set, files any journal record ever referenced survive so
	// historical versions stay scannable.
	names, err := fsys.ReadDir()
	if err != nil {
		return nil, err
	}
	referenced := man.files()
	var retained map[string]bool
	if opt.Retain {
		retained = histFiles(hist)
	}
	for _, name := range names {
		if !isLakeFile(name) {
			continue
		}
		if _, ok := referenced[name]; ok {
			continue
		}
		if retained[name] {
			continue
		}
		_ = fsys.Remove(name)
	}
	// NextTID must clear every torrent ID any committed segment mentions,
	// not just the flushed torrent records: a crash between a live
	// stream's observation flushes and its final meta commit leaves
	// observations for IDs no record claims yet, and handing those IDs to
	// the next campaign would silently re-attribute them.
	for _, s := range man.Segments {
		if s.Rows > 0 && s.MaxTID+1 > man.NextTID {
			man.NextTID = s.MaxTID + 1
		}
	}
	lk := &Lake{dir: dir, fs: fsys, opt: opt, man: man, bld: newBuilder(), jr: jr, hist: hist}
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].checkpoint {
			lk.ckptVer = hist[i].version
			break
		}
		lk.sinceCk++
	}
	if len(retire) > 0 || len(readd) > 0 {
		next := lk.man // Open owns the state; no clone needed yet
		next.Version++
		pay := &commitPayload{RetireSegments: retire, AddSegments: readd}
		if err := lk.commitLocked(next, pay, false); err != nil {
			return nil, err
		}
	}
	return lk, nil
}

func newBuilder() *builder { return &builder{zone: emptyZone()} }

// Close flushes pending state, waits for background compaction and
// deletes files retired by it.
func (lk *Lake) Close() error {
	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		return lk.lastErr
	}
	err := lk.flushLocked(false)
	lk.closed = true
	lk.mu.Unlock()
	lk.wg.Wait()
	lk.scanMu.Lock()
	lk.mu.Lock()
	lk.deleteDeadLocked()
	lk.mu.Unlock()
	lk.scanMu.Unlock()
	return err
}

var errClosed = errors.New("lake: closed")

// Version returns the journal head version; it increases on every flush,
// import and compaction, so cached readers can cheaply detect staleness,
// and any value it ever returned can be pinned with OpenAt or
// Predicate.AsOf (subject to vacuuming, see Options.Retain).
func (lk *Lake) Version() uint64 {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.man.Version
}

// NextTorrentID returns the lowest unused global torrent ID — the base a
// live writer offsets its local IDs by.
func (lk *Lake) NextTorrentID() int {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return int(lk.man.NextTID)
}

// Stats is a point-in-time summary of committed lake state.
type Stats struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Version is the journal head version; CheckpointVersion the version
	// of the latest checkpoint record (0 until one is written); Commits
	// the number of journal records replay would read; TotalBytes the
	// on-disk footprint of live segments, microindexes and the journal.
	Version           uint64 `json:"version"`
	CheckpointVersion uint64 `json:"checkpoint_version"`
	Commits           int64  `json:"commits"`
	TotalBytes        int64  `json:"total_bytes"`

	Segments     int   `json:"segments"`
	Observations int64 `json:"observations"`
	Torrents     int   `json:"torrents"`
	Users        int   `json:"users"`
	Dropped      int64 `json:"dropped"`
	// SegmentsRead / SegmentsSkipped / SegmentsSkippedPostings are
	// cumulative scan pushdown counters for this handle: Skipped counts
	// segments pruned by zone maps alone, SkippedPostings counts
	// bloom-maybe segments a microindex proved key-free before they
	// were opened.
	SegmentsRead            int64 `json:"segments_read"`
	SegmentsSkipped         int64 `json:"segments_skipped"`
	SegmentsSkippedPostings int64 `json:"segments_skipped_postings"`
}

// Stats snapshots the committed state.
func (lk *Lake) Stats() Stats {
	lk.mu.Lock()
	m := lk.man
	st := Stats{
		Name: m.Name, Start: m.Start, End: m.End,
		Version: m.Version, Segments: len(m.Segments),
		Observations: m.Rows, Torrents: m.Torrents, Users: m.Users,
		Dropped:           m.Dropped,
		CheckpointVersion: lk.ckptVer,
		Commits:           int64(lk.jr.Len()),
		TotalBytes:        lk.jr.Size(),
	}
	for _, s := range m.Segments {
		st.TotalBytes += s.Bytes + s.IndexBytes
	}
	lk.mu.Unlock()
	st.SegmentsRead = lk.segsRead.Load()
	st.SegmentsSkipped = lk.segsSkipped.Load()
	st.SegmentsSkippedPostings = lk.segsSkippedIdx.Load()
	return st
}

// ---------------------------------------------------------------------
// Writer API
// ---------------------------------------------------------------------

// Append adds one observation to the open builder, sealing a segment when
// the flush threshold is reached.
func (lk *Lake) Append(o dataset.Observation) error {
	if o.TorrentID < 0 || o.TorrentID > maxTorrentID {
		return fmt.Errorf("lake: torrent ID %d out of range", o.TorrentID)
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	lk.bld.store.Append(o)
	s := &lk.bld.store
	i := s.Len() - 1
	lk.bld.zone.add(int32(o.TorrentID), s.UnixNano(i), s.IPString(i))
	return lk.maybeFlushLocked()
}

// AppendAddr is the zero-alloc-on-repeat live-crawl path: the address
// string is computed only the first time this builder sees it.
func (lk *Lake) AppendAddr(tid int, addr netip.Addr, at time.Time, seeder bool) error {
	if tid < 0 || tid > maxTorrentID {
		return fmt.Errorf("lake: torrent ID %d out of range", tid)
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	lk.bld.store.AppendAddr(tid, addr, at, seeder)
	s := &lk.bld.store
	i := s.Len() - 1
	lk.bld.zone.add(int32(tid), s.UnixNano(i), s.IPString(i))
	return lk.maybeFlushLocked()
}

// AddTorrents buffers torrent records for the next flush. Records are
// copied; IDs must be non-negative and are registered against NextTID.
func (lk *Lake) AddTorrents(recs []*dataset.TorrentRecord) error {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	for _, r := range recs {
		if r.TorrentID < 0 || r.TorrentID > maxTorrentID {
			return fmt.Errorf("lake: torrent ID %d out of range", r.TorrentID)
		}
		cp := *r
		lk.pendT = append(lk.pendT, &cp)
	}
	return nil
}

// AddUsers buffers user records for the next flush.
func (lk *Lake) AddUsers(users []dataset.UserRecord) error {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	lk.pendU = append(lk.pendU, users...)
	return nil
}

// ExtendWindow widens the lake's measurement window and names an unnamed
// lake. The change is committed by the next flush.
func (lk *Lake) ExtendWindow(name string, start, end time.Time) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.man.Name == "" {
		lk.man.Name = name
	}
	if lk.man.Start.IsZero() || (!start.IsZero() && start.Before(lk.man.Start)) {
		lk.man.Start = start
	}
	if end.After(lk.man.End) {
		lk.man.End = end
	}
}

// AddDropped records observations a writer had to discard upstream
// (e.g. a dataset import's DroppedObservations), so the loss is visible
// in Stats instead of vanishing.
func (lk *Lake) AddDropped(n int) {
	lk.mu.Lock()
	lk.man.Dropped += int64(n)
	lk.mu.Unlock()
}

// Flush seals the open builder and pending meta records into files and
// commits a new manifest version. A no-op when nothing is pending.
func (lk *Lake) Flush() error {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	return lk.flushLocked(true)
}

func (lk *Lake) maybeFlushLocked() error {
	if lk.bld.store.Len() < lk.opt.FlushRows {
		return nil
	}
	return lk.flushLocked(true)
}

// flushLocked writes the builder segment and/or meta file, appends the
// commit record, and (optionally) kicks the background compactor. The
// live state only advances — and the builder and pending records are
// only cleared — once the journal append succeeds; a failed attempt
// retries with the same sequence numbers and Create truncates the
// half-written files.
func (lk *Lake) flushLocked(autoCompact bool) error {
	next := lk.man.clone()
	pay := &commitPayload{}
	sealedSeg := false
	if n := lk.bld.store.Len(); n > 0 {
		seq := next.NextSeq
		next.NextSeq++
		name := fmt.Sprintf("seg-%06d.obs", seq)
		buf := encodeSegment(&lk.bld.store, lk.bld.zone)
		if err := lk.writeFileSync(name, buf); err != nil {
			lk.lastErr = err
			return err
		}
		// Seal the segment's microindex beside it (same sequence number)
		// before the commit record that references both is appended.
		idxName := fmt.Sprintf("idx-%06d.ipx", seq)
		idxBuf := encodeMicroindex(buildMicroindex(&lk.bld.store))
		if err := lk.writeFileSync(idxName, idxBuf); err != nil {
			lk.lastErr = err
			return err
		}
		sm := segMeta{
			File: name, Bytes: int64(len(buf)),
			Index: idxName, IndexBytes: int64(len(idxBuf)),
			zone: lk.bld.zone,
		}
		next.Segments = append(next.Segments, sm)
		pay.AddSegments = append(pay.AddSegments, sm)
		next.Rows += int64(n)
		if lk.bld.zone.MaxTID+1 > next.NextTID {
			// Streamed observations can mention torrents whose records are
			// only committed at campaign end; NextTID must clear them now
			// so a crash before that commit cannot recycle their IDs.
			next.NextTID = lk.bld.zone.MaxTID + 1
		}
		sealedSeg = true
	}
	sealedMeta := false
	if len(lk.pendT) > 0 || len(lk.pendU) > 0 {
		name := fmt.Sprintf("meta-%06d.jsonl", next.NextSeq)
		next.NextSeq++
		md := &dataset.Dataset{Name: next.Name, Start: next.Start, End: next.End}
		md.Torrents = lk.pendT
		md.Users = lk.pendU
		if err := lk.saveSync(name, md); err != nil {
			lk.lastErr = err
			return err
		}
		next.Meta = append(next.Meta, name)
		pay.AddMeta = append(pay.AddMeta, name)
		next.Torrents += len(lk.pendT)
		next.Users += len(lk.pendU)
		for _, t := range lk.pendT {
			if int32(t.TorrentID) >= next.NextTID {
				next.NextTID = int32(t.TorrentID) + 1
			}
		}
		sealedMeta = true
	}
	if !sealedSeg && !sealedMeta {
		return nil
	}
	next.Version++
	if err := lk.commitLocked(next, pay, false); err != nil {
		lk.lastErr = err
		return err
	}
	if sealedSeg {
		lk.bld = newBuilder()
	}
	if sealedMeta {
		lk.pendT, lk.pendU = nil, nil
	}
	lk.maybeCheckpointLocked()
	if autoCompact && lk.opt.Compact.Auto && lk.compactEligibleLocked() {
		lk.startCompactLocked()
	}
	return nil
}

// commitLocked appends one record to the journal and, on success,
// installs next as the live state. Callers hold mu, own next (a clone or
// a state no reader shares), and have already written and fsynced every
// file the record references. On failure the live state is unchanged.
func (lk *Lake) commitLocked(next *manifest, pay *commitPayload, checkpoint bool) error {
	payloadScalars(pay, next)
	data, err := json.Marshal(pay)
	if err != nil {
		return err
	}
	rec := journal.Record{Checkpoint: checkpoint, Version: next.Version, Payload: data}
	if err := lk.jr.Append(rec); err != nil {
		return err
	}
	lk.man = next
	lk.hist = append(lk.hist, histRec{version: next.Version, checkpoint: checkpoint, pay: pay})
	if checkpoint {
		lk.ckptVer = next.Version
		lk.sinceCk = 0
	} else {
		lk.sinceCk++
	}
	return nil
}

// maybeCheckpointLocked appends a checkpoint record once CheckpointEvery
// delta commits have accumulated. A checkpoint repeats the head version
// with the full state, bounding replay; it is an optimization, so a
// failed append is logged and the lake keeps going — replay just starts
// from an older checkpoint.
func (lk *Lake) maybeCheckpointLocked() {
	if lk.sinceCk < lk.opt.CheckpointEvery {
		return
	}
	if err := lk.commitLocked(lk.man.clone(), checkpointPayload(lk.man), true); err != nil {
		log.Printf("lake: checkpoint at version %d failed: %v", lk.man.Version, err)
	}
}

// writeFileSync writes data and fsyncs before closing, so the manifest
// can never reference a segment the disk does not yet hold.
func (lk *Lake) writeFileSync(name string, data []byte) error {
	f, err := lk.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSync writes a meta dataset as JSONL with an fsync.
func (lk *Lake) saveSync(name string, d *dataset.Dataset) error {
	f, err := lk.fs.Create(name)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// deleteDeadLocked removes files retired by compaction. Callers hold both
// scanMu (write) and mu.
func (lk *Lake) deleteDeadLocked() {
	for _, f := range lk.dead {
		_ = lk.fs.Remove(f)
		lk.idxCache.Delete(f)
	}
	lk.dead = nil
}

// ---------------------------------------------------------------------
// Bulk import / materialize
// ---------------------------------------------------------------------

// ImportDataset appends a whole dataset to the lake: torrent IDs are
// offset past the lake's existing contents so successive crawls never
// collide, the dataset's window extends the lake's, and
// DroppedObservations carries over into the lake's dropped counter.
// Segments flush at FlushRows. The ID range is reserved and the meta
// records registered in one critical section, so concurrent imports (or
// an import racing a live campaign stream) get disjoint bases; the
// observation transfer then releases the lake between chunks, keeping
// Stats/Version/Scan responsive during a large migration.
func (lk *Lake) ImportDataset(ds *dataset.Dataset) error {
	// The reservation must clear every ID the dataset mentions — records
	// and observations can disagree in hand-built datasets.
	maxID := -1
	for _, t := range ds.Torrents {
		if t.TorrentID < 0 || t.TorrentID > maxTorrentID {
			return fmt.Errorf("lake: torrent ID %d out of range", t.TorrentID)
		}
		if t.TorrentID > maxID {
			maxID = t.TorrentID
		}
	}
	for i := 0; i < ds.Obs.Len(); i++ {
		if tid := ds.Obs.TorrentID(i); tid > maxID {
			maxID = tid
		}
	}

	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		return errClosed
	}
	base := int(lk.man.NextTID)
	if maxID >= 0 {
		if base+maxID > maxTorrentID {
			lk.mu.Unlock()
			return fmt.Errorf("lake: import would exceed the torrent ID space (base %d + max %d)", base, maxID)
		}
		lk.man.NextTID = int32(base + maxID + 1)
	}
	for _, t := range ds.Torrents {
		cp := *t
		cp.TorrentID += base
		lk.pendT = append(lk.pendT, &cp)
	}
	lk.pendU = append(lk.pendU, ds.Users...)
	if lk.man.Name == "" {
		lk.man.Name = ds.Name
	}
	if lk.man.Start.IsZero() || (!ds.Start.IsZero() && ds.Start.Before(lk.man.Start)) {
		lk.man.Start = ds.Start
	}
	if ds.End.After(lk.man.End) {
		lk.man.End = ds.End
	}
	lk.man.Dropped += int64(ds.DroppedObservations)
	lk.mu.Unlock()

	// Observation transfer: remap the dataset's intern table into the
	// builder lazily — one hash per distinct address per open builder,
	// not one per observation. The chunk loop re-acquires the lake per
	// chunk so concurrent readers and writers interleave with the import.
	src := &ds.Obs
	srcIPs := src.IPs()
	const unmapped = ^uint32(0)
	const chunk = 1 << 14
	ipMap := make([]uint32, srcIPs.Len())
	for i := range ipMap {
		ipMap[i] = unmapped
	}
	var bld *builder
	for lo := 0; lo < src.Len(); lo += chunk {
		hi := lo + chunk
		if hi > src.Len() {
			hi = src.Len()
		}
		lk.mu.Lock()
		if lk.closed {
			lk.mu.Unlock()
			return errClosed
		}
		for i := lo; i < hi; i++ {
			sp := src.IPIndex(i)
			mapped := ipMap[sp]
			if mapped == unmapped || bld != lk.bld {
				// First sight, or the builder was sealed since the map was
				// built (mid-chunk flush, another writer, a previous
				// chunk): re-intern against the current builder.
				if bld != lk.bld {
					bld = lk.bld
					for j := range ipMap {
						ipMap[j] = unmapped
					}
				}
				mapped = bld.store.IPs().InternString(srcIPs.String(sp))
				ipMap[sp] = mapped
			}
			tid := int32(src.TorrentID(i) + base)
			atNs := src.UnixNano(i)
			bld.store.AppendRaw(tid, mapped, atNs, src.Seeder(i))
			bld.zone.add(tid, atNs, srcIPs.String(sp))
			if err := lk.maybeFlushLocked(); err != nil {
				lk.mu.Unlock()
				return err
			}
		}
		lk.mu.Unlock()
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	return lk.flushLocked(true)
}

// Materialize reads the committed lake back into one in-memory dataset:
// meta records plus every observation matching pred, canonicalised by
// dataset.Merge so the result is independent of segment boundaries,
// flush sizes and compaction history. With a zero Predicate and a lake
// holding exactly one imported canonical dataset, the result is that
// dataset, byte for byte.
func (lk *Lake) Materialize(ctx context.Context, pred Predicate) (*dataset.Dataset, error) {
	ds, _, err := lk.MaterializeVersion(ctx, pred)
	return ds, err
}

// MaterializeVersion is Materialize plus the committed manifest version
// the scan actually used — the exact staleness stamp for caches built
// over the result. Reading Version() separately around the call can be
// off by any commits that land in between.
func (lk *Lake) MaterializeVersion(ctx context.Context, pred Predicate) (*dataset.Dataset, uint64, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	man, err := lk.pinned(pred.AsOf)
	if err != nil {
		return nil, 0, err
	}

	raw := &dataset.Dataset{Name: man.Name, Start: man.Start, End: man.End}
	torrents, users, err := lk.readMetaLocked(man)
	if err != nil {
		return nil, 0, err
	}
	if pred.TorrentIDs != nil {
		want := make(map[int]bool, len(pred.TorrentIDs))
		for _, id := range pred.TorrentIDs {
			want[id] = true
		}
		for _, t := range torrents {
			if want[t.TorrentID] {
				raw.Torrents = append(raw.Torrents, t)
			}
		}
	} else {
		raw.Torrents = torrents
	}
	raw.Users = users

	// Segment intern indices are remapped into the store's table on first
	// use, so the table fills in row order exactly as per-row interning
	// would, with one string-map probe per distinct address per batch.
	var mu sync.Mutex
	var remap []uint32 // segment intern index -> 1 + store index (0 = unseen)
	err = lk.scanManifest(ctx, man, pred, 0, func(_ int, b *Batch) error {
		mu.Lock()
		defer mu.Unlock()
		store := &raw.Obs
		seg := b.IPs()
		remap = append(remap[:0], make([]uint32, len(seg))...)
		for k := 0; k < b.Len(); k++ {
			i := b.IPIndex(k)
			if remap[i] == 0 {
				remap[i] = store.IPs().InternString(seg[i]) + 1
			}
			store.AppendRaw(int32(b.TorrentID(k)), remap[i]-1, b.UnixNano(k), b.Seeder(k))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := dataset.Merge(man.Name, raw)
	out.Start, out.End = man.Start, man.End
	out.DroppedObservations += int(man.Dropped)
	return out, man.Version, nil
}

// TorrentRecords reads every committed torrent record (and user records)
// from the lake's meta files.
func (lk *Lake) TorrentRecords() ([]*dataset.TorrentRecord, []dataset.UserRecord, error) {
	return lk.TorrentRecordsAsOf(0)
}

// TorrentRecordsAsOf is TorrentRecords against the state committed at
// version (0 = head): records committed after that version are absent,
// exactly as a reader at the time would have seen the lake.
func (lk *Lake) TorrentRecordsAsOf(version uint64) ([]*dataset.TorrentRecord, []dataset.UserRecord, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	man, err := lk.pinned(version)
	if err != nil {
		return nil, nil, err
	}
	return lk.readMetaLocked(man)
}

// pinned resolves the committed state a scan should run against: version
// 0 (or the current head) means the live state, anything else a fold of
// the journal history. Callers hold scanMu.R, which keeps the resolved
// files on disk until the scan finishes.
func (lk *Lake) pinned(version uint64) (*manifest, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.stateAtLocked(version)
}

// stateAtLocked folds the journal history into the state committed at
// version (0 = head). The result is a private copy. Callers hold mu.
func (lk *Lake) stateAtLocked(version uint64) (*manifest, error) {
	head := lk.man.Version
	if version == 0 || version == head {
		return lk.man.clone(), nil
	}
	if version > head {
		return nil, &VersionUnavailableError{Version: version, Head: head, Reason: "not committed yet"}
	}
	n := 0
	for i, h := range lk.hist {
		if h.version <= version {
			n = i + 1
		}
	}
	if n == 0 || lk.hist[n-1].version != version {
		// The journal starts at the migration checkpoint; v1-era versions
		// below it were never recorded.
		return nil, &VersionUnavailableError{Version: version, Head: head, Reason: "predates the journal"}
	}
	m, err := foldHist(lk.hist, n, false)
	if err != nil {
		return nil, err
	}
	// Compaction retires this version's segments eventually; unless
	// Options.Retain holds them, a vacuum may already have deleted them.
	for _, s := range m.Segments {
		sz, err := lk.fs.Size(s.File)
		if err != nil || sz != s.Bytes {
			return nil, &VersionUnavailableError{Version: version, Head: head,
				Reason: fmt.Sprintf("segment %s was vacuumed after compaction", s.File)}
		}
	}
	return m, nil
}

// readMetaLocked loads the manifest's meta files. Callers hold scanMu.R.
func (lk *Lake) readMetaLocked(man *manifest) ([]*dataset.TorrentRecord, []dataset.UserRecord, error) {
	var torrents []*dataset.TorrentRecord
	var users []dataset.UserRecord
	for _, f := range man.Meta {
		buf, err := lk.fs.ReadFile(f)
		if err != nil {
			return nil, nil, fmt.Errorf("lake: meta file %s: %w", f, err)
		}
		md, err := dataset.Read(bytes.NewReader(buf))
		if err != nil {
			return nil, nil, fmt.Errorf("lake: meta file %s: %w", f, err)
		}
		torrents = append(torrents, md.Torrents...)
		users = append(users, md.Users...)
	}
	return torrents, users, nil
}

// Verify checks the whole lake: the on-disk journal is strictly
// re-decoded (rejecting torn tails, CRC damage, version regressions and
// parent-hash breaks), folded with every checkpoint cross-checked
// against replay, and held against the live state; then every committed
// segment is read and CRC-checked — and, when the segment carries a
// microindex, the index file is CRC-checked and its postings
// cross-checked against the postings rebuilt from the segment's actual
// rows. One error per problem; nil means the lake is fully intact.
func (lk *Lake) Verify(ctx context.Context) []error {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	// Journal bytes and state snapshot under one critical section, so an
	// interleaved commit cannot register as a false divergence.
	lk.mu.Lock()
	jbuf, jerr := lk.fs.ReadFile(journal.Name)
	man := lk.man.clone()
	lk.mu.Unlock()
	var errs []error
	switch {
	case jerr != nil && os.IsNotExist(jerr) && man.Version == 0:
		// A fresh lake: nothing committed, no journal yet.
	case jerr != nil:
		errs = append(errs, fmt.Errorf("lake: verify: reading journal: %w", jerr))
	default:
		errs = append(errs, verifyJournal(jbuf, man)...)
	}
	for _, sm := range man.Segments {
		if ctx.Err() != nil {
			errs = append(errs, ctx.Err())
			break
		}
		d, _, err := lk.readSegment(sm)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if sm.Index == "" {
			continue
		}
		buf, err := lk.fs.ReadFile(sm.Index)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		x, err := decodeMicroindex(sm.Index, buf)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !x.equal(buildMicroindexFromSeg(d)) {
			errs = append(errs, &CorruptIndexError{File: sm.Index, Reason: "postings disagree with segment " + sm.File})
		}
	}
	return errs
}

// verifyJournal strictly decodes and replays journal bytes and compares
// the folded head against the live state man. Name/Start/End, Dropped
// and NextTID legitimately run ahead of the journal in memory
// (ExtendWindow, AddDropped and import reservations commit with the
// next flush), so they are excluded; everything else must agree exactly.
func verifyJournal(buf []byte, man *manifest) []error {
	recs, err := journal.Decode(buf)
	if err != nil {
		return []error{fmt.Errorf("lake: verify: %w", err)}
	}
	hist, err := decodeHist(recs)
	if err != nil {
		return []error{err}
	}
	folded, err := foldHist(hist, len(hist), true)
	if err != nil {
		return []error{err}
	}
	if folded.Version != man.Version {
		return []error{fmt.Errorf("lake: verify: journal head is version %d, live state is %d", folded.Version, man.Version)}
	}
	var errs []error
	if folded.NextSeq != man.NextSeq {
		errs = append(errs, fmt.Errorf("lake: verify: journal next_seq %d, live state %d", folded.NextSeq, man.NextSeq))
	}
	if folded.Rows != man.Rows || folded.Torrents != man.Torrents || folded.Users != man.Users {
		errs = append(errs, fmt.Errorf("lake: verify: journal rows/torrents/users %d/%d/%d, live state %d/%d/%d",
			folded.Rows, folded.Torrents, folded.Users, man.Rows, man.Torrents, man.Users))
	}
	if !slices.Equal(folded.Segments, man.Segments) {
		errs = append(errs, fmt.Errorf("lake: verify: journal segment list disagrees with live state (%d vs %d entries)",
			len(folded.Segments), len(man.Segments)))
	}
	if !slices.Equal(folded.Meta, man.Meta) {
		errs = append(errs, fmt.Errorf("lake: verify: journal meta list disagrees with live state (%d vs %d entries)",
			len(folded.Meta), len(man.Meta)))
	}
	return errs
}

// readSegment loads and decodes one committed segment file.
func (lk *Lake) readSegment(sm segMeta) (*segData, zone, error) {
	buf, err := lk.fs.ReadFile(sm.File)
	if err != nil {
		return nil, zone{}, err
	}
	return decodeSegment(sm.File, buf)
}

// readIndex loads (and memoizes) one segment's microindex. Any failure
// degrades to (nil, err) — callers treat a missing index as "cannot
// prune", never as data loss.
func (lk *Lake) readIndex(sm segMeta) (*microindex, error) {
	if sm.Index == "" {
		return nil, nil
	}
	if v, ok := lk.idxCache.Load(sm.Index); ok {
		return v.(*microindex), nil
	}
	buf, err := lk.fs.ReadFile(sm.Index)
	if err != nil {
		return nil, err
	}
	x, err := decodeMicroindex(sm.Index, buf)
	if err != nil {
		return nil, err
	}
	lk.idxCache.Store(sm.Index, x)
	return x, nil
}
