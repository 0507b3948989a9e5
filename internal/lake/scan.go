// Planned, parallel predicate scans over committed segments. A scan is
// executed in three stages. First the planner prunes on metadata alone:
// the manifest's zone maps (time range, torrent-ID range, IP bloom) cost
// nothing to consult, and bloom-maybe segments are then held against
// their sealed microindex postings, which prove membership exactly — a
// point lookup opens only segments that actually contain the key.
// Second, the row-level predicate is ordered cheapest-column-first
// (time bounds, then the seeder bit, then torrent-ID membership, then IP
// membership) and specialized per segment: a time check the segment's
// zone map already proves is elided, and IP predicates are rewritten to
// the segment's local intern indices so the per-row test is an integer
// bitset probe, not a string compare. Third, surviving segments are
// decoded and filtered by a bounded worker pool; ScanWorkers exposes the
// worker identity so callers can keep per-worker state lock-free.
package lake

import (
	"context"
	"log"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Predicate selects observations. The zero value matches everything.
type Predicate struct {
	// MinTime/MaxTime bound the observation timestamp (inclusive); zero
	// values leave the corresponding side open.
	MinTime, MaxTime time.Time
	// TorrentIDs restricts to these torrents (nil = all; empty = none).
	TorrentIDs []int
	// IPs restricts to these address strings (nil/empty = all).
	IPs []string
	// IP restricts to one address string ("" = all); it folds into IPs
	// and exists for callers with a single-key lookup.
	IP string
	// SeedersOnly keeps only seeder sightings.
	SeedersOnly bool
	// AsOf pins the scan to the state committed at this journal version
	// (0 = the current head): segments sealed after it are invisible, so
	// a query replays byte-identically while ingest continues. Pinning a
	// version that predates the journal — or whose segments compaction
	// has vacuumed (see Options.Retain) — fails with
	// *VersionUnavailableError.
	AsOf uint64
}

// predKind names one row-level predicate column.
type predKind uint8

const (
	predTime   predKind = iota // two integer compares
	predSeeder                 // one bitset probe
	predTID                    // one map lookup
	predIP                     // one bitset probe after per-segment intern rewrite, else a string compare
)

// predName renders a predicate column for plans and -explain output.
func (k predKind) predName() string {
	switch k {
	case predTime:
		return "time-window"
	case predSeeder:
		return "seeder"
	case predTID:
		return "torrent-id"
	default:
		return "ip"
	}
}

// compiled is the fixed-width form of a predicate, plus the planned
// evaluation order of its active columns.
type compiled struct {
	minNs, maxNs   int64
	tids           map[int32]bool
	tidList        []int32 // sorted, for postings intersection
	minTID, maxTID int32
	ips            []string // sorted distinct, for postings intersection
	ipSet          map[string]bool
	ipMasks        []uint64 // one bloom mask per ip
	seedersOnly    bool
	// order lists the active row predicates cheapest-column-first; the
	// planner specializes it per segment (see segOrder).
	order []predKind
}

func (p Predicate) compile() compiled {
	c := compiled{minNs: math.MinInt64, maxNs: math.MaxInt64, minTID: math.MinInt32, maxTID: math.MaxInt32, seedersOnly: p.SeedersOnly}
	if !p.MinTime.IsZero() {
		c.minNs = p.MinTime.UnixNano()
	}
	if !p.MaxTime.IsZero() {
		c.maxNs = p.MaxTime.UnixNano()
	}
	if p.TorrentIDs != nil {
		c.tids = make(map[int32]bool, len(p.TorrentIDs))
		c.tidList = make([]int32, 0, len(p.TorrentIDs))
		c.minTID, c.maxTID = math.MaxInt32, math.MinInt32
		for _, id := range p.TorrentIDs {
			t := int32(id)
			if !c.tids[t] {
				c.tids[t] = true
				c.tidList = append(c.tidList, t)
			}
			if t < c.minTID {
				c.minTID = t
			}
			if t > c.maxTID {
				c.maxTID = t
			}
		}
		slices.Sort(c.tidList)
	}
	ips := p.IPs
	if p.IP != "" {
		ips = append(slices.Clone(ips), p.IP)
	}
	if len(ips) > 0 {
		c.ipSet = make(map[string]bool, len(ips))
		for _, ip := range ips {
			if !c.ipSet[ip] {
				c.ipSet[ip] = true
				c.ips = append(c.ips, ip)
			}
		}
		slices.Sort(c.ips)
		c.ipMasks = make([]uint64, len(c.ips))
		for i, ip := range c.ips {
			c.ipMasks[i] = bloomBits(ip)
		}
	}
	// Cheapest column first: the constant order below is the static cost
	// model (integer compares < bit probe < map lookup < membership over
	// strings); inactive columns are not evaluated at all.
	if c.minNs != math.MinInt64 || c.maxNs != math.MaxInt64 {
		c.order = append(c.order, predTime)
	}
	if c.seedersOnly {
		c.order = append(c.order, predSeeder)
	}
	if c.tids != nil {
		c.order = append(c.order, predTID)
	}
	if len(c.ips) > 0 {
		c.order = append(c.order, predIP)
	}
	return c
}

// admitsSegment tests a segment's zone maps against the predicate.
func (c *compiled) admitsSegment(z zone) bool {
	if z.Rows == 0 {
		return false
	}
	if z.MinAtNs > c.maxNs || z.MaxAtNs < c.minNs {
		return false
	}
	if z.MinTID > c.maxTID || z.MaxTID < c.minTID {
		return false
	}
	if len(c.ipMasks) > 0 {
		maybe := false
		for _, m := range c.ipMasks {
			if z.IPBloom&m == m {
				maybe = true
				break
			}
		}
		if !maybe {
			return false
		}
	}
	return true
}

// wantsPostings reports whether the predicate has a column a microindex
// can prune on.
func (c *compiled) wantsPostings() bool {
	return len(c.ips) > 0 || c.tidList != nil
}

// admitsPostings holds a bloom-maybe segment against exact postings.
func (c *compiled) admitsPostings(x *microindex) bool {
	if len(c.ips) > 0 && !x.hasAnyIP(c.ips) {
		return false
	}
	if c.tidList != nil && !x.hasAnyTID(c.tidList) {
		return false
	}
	return true
}

// segOrder specializes the planned predicate order for one segment: a
// time window the zone map proves every row satisfies is elided, so a
// whole-lake scan with a wide filter never tests timestamps row by row.
func (c *compiled) segOrder(z zone) []predKind {
	if z.MinAtNs >= c.minNs && z.MaxAtNs <= c.maxNs {
		for i, k := range c.order {
			if k == predTime {
				out := make([]predKind, 0, len(c.order)-1)
				out = append(out, c.order[:i]...)
				return append(out, c.order[i+1:]...)
			}
		}
	}
	return c.order
}

// matchRows filters one decoded segment through the planned predicate
// order, returning the matching row indices.
func (c *compiled) matchRows(d *segData, order []predKind) []int32 {
	// Rewrite the IP predicate to segment-local intern indices: one
	// string-set probe per distinct address in the segment, then a pure
	// bitset test per row.
	var ipBits []uint64
	if slices.Contains(order, predIP) {
		ipBits = make([]uint64, (len(d.ips)+63)/64)
		hit := false
		for i, ip := range d.ips {
			if c.ipSet[ip] {
				ipBits[i>>6] |= 1 << (uint(i) & 63)
				hit = true
			}
		}
		if !hit {
			return nil // bloom false positive: no row can match
		}
	}
	rows := make([]int32, 0, d.rows())
row:
	for i := int32(0); i < int32(d.rows()); i++ {
		for _, k := range order {
			switch k {
			case predTime:
				if at := d.atNs[i]; at < c.minNs || at > c.maxNs {
					continue row
				}
			case predSeeder:
				if !d.seeder(i) {
					continue row
				}
			case predTID:
				if !c.tids[d.tids[i]] {
					continue row
				}
			case predIP:
				if idx := d.ipIdx[i]; ipBits[idx>>6]&(1<<(uint(idx)&63)) == 0 {
					continue row
				}
			}
		}
		rows = append(rows, i)
	}
	return rows
}

// Batch is one segment's matching observations, handed to the scan
// callback. Accessors index the k-th match, 0 <= k < Len().
type Batch struct {
	seg  *segData
	rows []int32
}

// Len returns the number of matching observations in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// TorrentID returns match k's torrent ID.
func (b *Batch) TorrentID(k int) int { return int(b.seg.tids[b.rows[k]]) }

// IP returns match k's address string (interned per segment).
func (b *Batch) IP(k int) string { return b.seg.ips[b.seg.ipIdx[b.rows[k]]] }

// IPIndex returns match k's index into the segment's intern table
// (IPs). Callers that key state by address remap these indices once per
// batch instead of hashing an address string per row.
func (b *Batch) IPIndex(k int) uint32 { return b.seg.ipIdx[b.rows[k]] }

// IPs returns the segment's address intern table, which IPIndex indexes.
// Callers must not modify it.
func (b *Batch) IPs() []string { return b.seg.ips }

// UnixNano returns match k's timestamp in unix nanoseconds.
func (b *Batch) UnixNano(k int) int64 { return b.seg.atNs[b.rows[k]] }

// Time returns match k's timestamp (UTC instant).
func (b *Batch) Time(k int) time.Time { return time.Unix(0, b.seg.atNs[b.rows[k]]).UTC() }

// Seeder reports match k's seeder flag.
func (b *Batch) Seeder(k int) bool { return b.seg.seeder(b.rows[k]) }

// scanPlan is the planner's verdict over one manifest snapshot.
type scanPlan struct {
	candidates []segMeta
	prunedZone int
	prunedIdx  int
}

// planManifest prunes the manifest's segment set: zone maps first
// (free), then microindex postings for bloom-maybe segments when the
// predicate carries a key column. An unreadable index only costs the
// pruning it would have bought.
func (lk *Lake) planManifest(man *manifest, c *compiled) scanPlan {
	var p scanPlan
	for _, sm := range man.Segments {
		if !c.admitsSegment(sm.zone) {
			p.prunedZone++
			continue
		}
		if c.wantsPostings() && sm.Index != "" {
			x, err := lk.readIndex(sm)
			if err != nil {
				log.Printf("lake: reading microindex %s: %v (scanning %s unpruned)", sm.Index, err, sm.File)
			} else if x != nil && !c.admitsPostings(x) {
				p.prunedIdx++
				continue
			}
		}
		p.candidates = append(p.candidates, sm)
	}
	return p
}

// ScanPlan describes how a scan of the current committed state would
// execute: the planned predicate order and the fate of every segment.
// It is the payload behind `btpub-query -explain`.
type ScanPlan struct {
	// Predicates lists the active row-predicate columns in planned
	// (cheapest-first) evaluation order.
	Predicates []string `json:"predicates"`
	// Segments counts the committed segments considered.
	Segments int `json:"segments"`
	// PrunedZone counts segments dismissed by zone maps alone.
	PrunedZone int `json:"pruned_zone"`
	// PrunedPostings counts bloom-maybe segments dismissed by exact
	// microindex postings.
	PrunedPostings int `json:"pruned_postings"`
	// Opened lists the segment files the scan would actually read.
	Opened []string `json:"opened"`
	// Rows is the total row count of the opened segments (an upper
	// bound on rows the predicate will test).
	Rows int64 `json:"rows"`
}

// PlanScan plans a scan without executing it. It fails only when
// pred.AsOf pins an unavailable version.
func (lk *Lake) PlanScan(pred Predicate) (ScanPlan, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	man, err := lk.pinned(pred.AsOf)
	if err != nil {
		return ScanPlan{}, err
	}
	c := pred.compile()
	p := lk.planManifest(man, &c)
	out := ScanPlan{
		Segments:       len(man.Segments),
		PrunedZone:     p.prunedZone,
		PrunedPostings: p.prunedIdx,
	}
	for _, k := range c.order {
		out.Predicates = append(out.Predicates, k.predName())
	}
	for _, sm := range p.candidates {
		out.Opened = append(out.Opened, sm.File)
		out.Rows += int64(sm.Rows)
	}
	return out, nil
}

// Scan streams every committed observation matching pred to fn, reading
// surviving segments in parallel. fn may be called concurrently from
// several goroutines and must be safe for that; returning an error (or a
// context cancellation) stops the scan. The scan sees the manifest
// committed at call time — segments sealed afterwards are not included,
// and compaction can never yank a file out from under an active scan.
func (lk *Lake) Scan(ctx context.Context, pred Predicate, fn func(*Batch) error) error {
	return lk.ScanWorkers(ctx, pred, 0, func(_ int, b *Batch) error { return fn(b) })
}

// ScanWorkers is Scan with explicit scan parallelism and worker
// identity: segments are partitioned across `workers` goroutines
// (0 = GOMAXPROCS) and fn is invoked as fn(worker, batch) with
// 0 <= worker < workers, at most one call per worker at a time — so a
// caller can keep per-worker aggregation state without any locking.
func (lk *Lake) ScanWorkers(ctx context.Context, pred Predicate, workers int, fn func(worker int, b *Batch) error) error {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	man, err := lk.pinned(pred.AsOf)
	if err != nil {
		return err
	}
	return lk.scanManifest(ctx, man, pred, workers, fn)
}

// scanManifest runs the planned scan over an already-snapshotted
// manifest. Callers hold scanMu.R.
func (lk *Lake) scanManifest(ctx context.Context, man *manifest, pred Predicate, workers int, fn func(int, *Batch) error) error {
	c := pred.compile()
	plan := lk.planManifest(man, &c)
	lk.segsSkipped.Add(int64(plan.prunedZone))
	lk.segsSkippedIdx.Add(int64(plan.prunedIdx))
	if len(plan.candidates) == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan.candidates) {
		workers = len(plan.candidates)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err; cancel() })
	}
	jobs := make(chan segMeta)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sm := range jobs {
				if ctx.Err() != nil {
					return
				}
				d, _, err := lk.readSegment(sm)
				if err != nil {
					fail(err)
					return
				}
				lk.segsRead.Add(1)
				rows := c.matchRows(d, c.segOrder(sm.zone))
				if len(rows) == 0 {
					continue
				}
				if err := fn(w, &Batch{seg: d, rows: rows}); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	for _, sm := range plan.candidates {
		select {
		case jobs <- sm:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(jobs)
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
}
