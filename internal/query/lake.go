// The lake-backed executor: plans each query against the lake's
// committed segment set and executes it in parallel. The filter is
// compiled into a lake.Predicate so the lake's planner can prune whole
// segments on zone maps and microindex postings and order the row
// predicates cheapest-column-first; publisher filters resolve into
// torrent-ID sets from the lake's metadata records. Execution
// partitions the surviving segments across scan workers that decode and
// match them in parallel; every matched segment then feeds one
// collector as a batch, under a lock, so the final rows are — by
// construction — byte-identical to a serial scan. A grouped aggregate
// over a million-observation lake never materializes a dataset.
package query

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
)

// metaCache caches the lake's parsed torrent records per manifest
// version. Torrent metadata is append-only, so a version match means
// the cached records are exact; derived executors (WithWorkers) share
// one cache.
type metaCache struct {
	mu   sync.Mutex
	lk   *lake.Lake
	ver  uint64
	recs []*dataset.TorrentRecord
}

// get returns the committed torrent records, cached per lake version.
func (m *metaCache) get() ([]*dataset.TorrentRecord, error) {
	// Read the version before the records: a commit landing in between
	// stamps the cache with an older version than its content, which
	// costs one redundant reload — never a stale read.
	v := m.lk.Version()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recs != nil && m.ver == v {
		return m.recs, nil
	}
	recs, _, err := m.lk.TorrentRecords()
	if err != nil {
		return nil, err
	}
	if recs == nil {
		recs = []*dataset.TorrentRecord{}
	}
	m.recs, m.ver = recs, v
	return recs, nil
}

// Lake executes queries against a persistent observation lake.
type Lake struct {
	lk *lake.Lake
	db *geoip.DB
	// workers is the scan parallelism: 0 = GOMAXPROCS, 1 = serial.
	workers int
	meta    *metaCache
}

// NewLake wraps a lake for querying. The executor scans in parallel
// with GOMAXPROCS workers; WithWorkers derives differently-parallel
// executors from the same handle.
func NewLake(lk *lake.Lake, db *geoip.DB) (*Lake, error) {
	if lk == nil || db == nil {
		return nil, errors.New("query: lake and geo DB required")
	}
	return &Lake{lk: lk, db: db, meta: &metaCache{lk: lk}}, nil
}

// WithWorkers returns an executor over the same lake running n scan
// workers per query (0 = GOMAXPROCS, 1 = a fully serial scan). The
// derived executor shares the metadata cache; results are identical for
// every n — only the wall-clock changes.
func (e *Lake) WithWorkers(n int) *Lake {
	if n < 0 {
		n = 0
	}
	return &Lake{lk: e.lk, db: e.db, workers: n, meta: e.meta}
}

// resolveWorkers returns the actual scan parallelism for one execution.
func (e *Lake) resolveWorkers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Execute answers one query.
func (e *Lake) Execute(ctx context.Context, q Query) (*Result, error) {
	p, recs, perr := e.prepare(q)
	if perr != nil {
		return nil, perr
	}
	// Scan workers decode and match segments in parallel; each matched
	// batch then feeds the one collector in turn.
	c := newCollector(p, e.db, recs)
	var mu sync.Mutex
	err := e.lk.ScanWorkers(ctx, compilePred(p, recs), e.resolveWorkers(), func(_ int, b *lake.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		ips := b.IPs()
		c.setTable(len(ips), func(i uint32) string { return ips[i] })
		for k := 0; k < b.Len(); k++ {
			c.add(int32(b.TorrentID(k)), b.IPIndex(k), b.UnixNano(k), b.Seeder(k))
		}
		return nil
	})
	if err != nil {
		return nil, mapLakeErr(err)
	}
	return c.finish()
}

// Explain describes how Execute would answer the query without reading
// any observation data: the planned predicate order, the fate of every
// committed segment (zone-map pruned, postings pruned, opened) and the
// scan parallelism. It is the payload behind `btpub-query -explain`.
type Explain struct {
	// Workers is the scan parallelism Execute would use.
	Workers int `json:"workers"`
	// Predicates lists the active row-predicate columns in planned
	// (cheapest-first) evaluation order.
	Predicates []string `json:"predicates"`
	// Segments counts the lake's committed segments.
	Segments int `json:"segments"`
	// PrunedZone counts segments dismissed by zone maps alone.
	PrunedZone int `json:"pruned_zone"`
	// PrunedPostings counts bloom-maybe segments dismissed by exact
	// microindex postings.
	PrunedPostings int `json:"pruned_postings"`
	// Opened lists the segment files the scan would read.
	Opened []string `json:"opened"`
	// Rows is the total row count of the opened segments.
	Rows int64 `json:"rows"`
	// PushdownTorrentIDs is the size of the torrent-ID set the filter
	// compiled down to (publisher names resolved against metadata), or
	// -1 when the filter does not restrict torrents.
	PushdownTorrentIDs int `json:"pushdown_torrent_ids"`
}

// Explain plans one query without executing it.
func (e *Lake) Explain(ctx context.Context, q Query) (*Explain, error) {
	p, recs, perr := e.prepare(q)
	if perr != nil {
		return nil, perr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pred := compilePred(p, recs)
	sp, err := e.lk.PlanScan(pred)
	if err != nil {
		return nil, mapLakeErr(err)
	}
	ex := &Explain{
		Workers:            e.resolveWorkers(),
		Predicates:         sp.Predicates,
		Segments:           sp.Segments,
		PrunedZone:         sp.PrunedZone,
		PrunedPostings:     sp.PrunedPostings,
		Opened:             sp.Opened,
		Rows:               sp.Rows,
		PushdownTorrentIDs: -1,
	}
	if ex.Workers > len(sp.Opened) && len(sp.Opened) > 0 {
		ex.Workers = len(sp.Opened)
	}
	if pred.TorrentIDs != nil {
		ex.PushdownTorrentIDs = len(pred.TorrentIDs)
	}
	return ex, nil
}

// prepare compiles the query and loads torrent metadata when the plan
// needs it. The returned error is a *Error for invalid queries and a
// plain error for lake I/O failures, so HTTP layers keep mapping them
// to 400 and 500 respectively.
func (e *Lake) prepare(q Query) (*plan, []*dataset.TorrentRecord, error) {
	p, perr := newPlan(q)
	if perr != nil {
		return nil, nil, perr
	}
	var recs []*dataset.TorrentRecord
	if p.needsMeta() {
		var err error
		if q.Filter.AsOf != 0 {
			// A pinned query must resolve publishers against the metadata
			// committed at that version, not today's; the per-head-version
			// cache cannot serve it.
			recs, _, err = e.lk.TorrentRecordsAsOf(q.Filter.AsOf)
		} else {
			recs, err = e.meta.get()
		}
		if err != nil {
			return nil, nil, mapLakeErr(err)
		}
	}
	return p, recs, nil
}

// mapLakeErr converts a pinned-version failure into a *Error, so the
// HTTP layer answers 400 (the client named a version the lake cannot
// serve) instead of 500.
func mapLakeErr(err error) error {
	var vu *lake.VersionUnavailableError
	if errors.As(err, &vu) {
		return badf("bad_query", "filter.as_of: %v", vu)
	}
	return err
}

// compilePred lowers the plan's filter into the lake predicate the scan
// planner prunes on.
func compilePred(p *plan, recs []*dataset.TorrentRecord) lake.Predicate {
	pred := lake.Predicate{
		SeedersOnly: p.q.Filter.SeedersOnly,
		IPs:         p.q.Filter.IPs,
		AsOf:        p.q.Filter.AsOf,
	}
	if !p.q.Filter.MinTime.IsZero() {
		pred.MinTime = p.q.Filter.MinTime
	}
	if !p.q.Filter.MaxTime.IsZero() {
		pred.MaxTime = p.q.Filter.MaxTime
	}
	if tids := pushdownTIDs(p, recs); tids != nil {
		pred.TorrentIDs = tids
	}
	return pred
}

// pushdownTIDs compiles the torrent-ID and publisher filters into one
// predicate ID set (nil = no restriction). Publisher names are resolved
// against the metadata records; validation guarantees names are
// non-empty, so an observation whose torrent has no record can never
// match the publisher filter — dropping it at the planning layer is
// exact, not approximate.
func pushdownTIDs(p *plan, recs []*dataset.TorrentRecord) []int {
	if p.tids == nil && p.pubs == nil {
		return nil
	}
	if p.pubs == nil {
		out := make([]int, 0, len(p.tids))
		for tid := range p.tids {
			out = append(out, int(tid))
		}
		return out
	}
	out := []int{} // non-nil: an empty set must select nothing, not everything
	for _, rec := range recs {
		if !p.pubs[publisherKey(rec)] {
			continue
		}
		if p.tids != nil && !p.tids[int32(rec.TorrentID)] {
			continue
		}
		out = append(out, rec.TorrentID)
	}
	return out
}
