// The execution core shared by both executors: a compiled plan and a
// collector that resolves observation context (torrent metadata, peer
// geo) and turns filtered observations into the final rows. Executors
// differ only in how they produce batches of observations (and what
// they push down); everything that decides row content, grouping,
// ordering and pagination lives here once — which is what makes the
// identical-rows contract between the in-memory and lake-backed paths
// hold by construction rather than by accident.
package query

import (
	"math"
	"math/bits"
	"slices"
	"strings"

	"btpub/internal/analysis"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
)

// plan is the compiled, normalized form of a query.
type plan struct {
	q            Query // normalized (Select and Aggs defaulted)
	minNs, maxNs int64
	tids         map[int32]bool  // nil = all
	pubs         map[string]bool // nil = all
	ips          map[string]bool
	isps         map[string]bool
	countries    map[string]bool
	bucketNs     int64
	offset       int // decoded cursor
	sig          uint64

	wantObs, wantIPs, wantSeeders, wantTorrents, wantSwarm bool
}

func newPlan(q Query) (*plan, *Error) {
	nq, sig, offset, err := q.normalize()
	if err != nil {
		return nil, err
	}
	p := &plan{q: nq, minNs: math.MinInt64, maxNs: math.MaxInt64, sig: sig, offset: offset}
	f := nq.Filter
	if !f.MinTime.IsZero() {
		p.minNs = f.MinTime.UnixNano()
	}
	if !f.MaxTime.IsZero() {
		p.maxNs = f.MaxTime.UnixNano()
	}
	if f.TorrentIDs != nil {
		p.tids = make(map[int32]bool, len(f.TorrentIDs))
		for _, id := range f.TorrentIDs {
			p.tids[int32(id)] = true
		}
	}
	p.pubs = stringSet(f.Publishers)
	p.ips = stringSet(f.IPs)
	p.isps = stringSet(f.ISPs)
	p.countries = stringSet(f.Countries)
	p.bucketNs = int64(nq.GroupBy.Bucket)
	for _, a := range nq.Aggs {
		switch a {
		case AggObservations:
			p.wantObs = true
		case AggDistinctIPs:
			p.wantIPs = true
		case AggSeeders:
			p.wantSeeders = true
		case AggTorrents:
			p.wantTorrents = true
		case AggMaxSwarm:
			p.wantSwarm = true
		}
	}
	return p, nil
}

func stringSet(vals []string) map[string]bool {
	if len(vals) == 0 {
		return nil
	}
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	return set
}

// needsMeta reports whether execution must resolve torrent records
// (publisher filter or a metadata-keyed grouping).
func (p *plan) needsMeta() bool {
	return p.pubs != nil || p.q.GroupBy.Key == ByPublisher || p.q.GroupBy.Key == ByContentType
}

// needsGeo reports whether execution must resolve peer addresses.
func (p *plan) needsGeo() bool {
	return p.isps != nil || p.countries != nil ||
		p.q.GroupBy.Key == ByISP || p.q.GroupBy.Key == ByCountry
}

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

// publisherKey resolves a torrent record to its publisher identity, the
// same resolution classify.BuildFacts uses: the portal username, or
// "ip:<addr>" for mn08-style records, or "" when neither is known.
func publisherKey(rec *dataset.TorrentRecord) string {
	if rec.Username != "" {
		return rec.Username
	}
	if rec.PublisherIP != "" {
		return "ip:" + rec.PublisherIP
	}
	return ""
}

// bitset is a set of dense IDs, grown on demand.
type bitset []uint64

func (s *bitset) add(id uint32) {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (id & 63)
}

func (s bitset) count() int64 {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// groupState accumulates one group's aggregates. Distinct sets hold the
// collector's dense per-query IDs, so they are the same whichever
// executor or batch fed a row.
type groupState struct {
	key     string
	obs     int64
	seeders int64
	ips     bitset   // address IDs
	tids    bitset   // torrent ordinals
	swarms  []uint64 // (torrent ordinal, address ID) pairs, deduplicated in finish
}

// obsKey is one raw-mode row in comparable form.
type obsKey struct {
	atNs   int64
	ip     string
	tid    int32
	seeder bool
}

// slot memoizes what the collector derives from one torrent ID or one
// distinct address: the filter verdict (torrent ID and publisher, or IP,
// ISP and country — the geo DB is consulted once per address per query)
// and the group key, with its group once a row has reached it.
type slot struct {
	drop bool
	key  string
	g    *groupState
}

// Where a row's group comes from.
const (
	keyConst   = iota // the single "" group
	keyTorrent        // torrent, publisher, content type
	keyAddr           // ISP, country
	keyBucket         // time bucket
)

// denseTIDs bounds the torrent IDs memoized in a slice indexed by ID;
// larger IDs fall back to a map.
const denseTIDs = 1 << 20

// collector consumes observations one batch at a time, applies the full
// filter, and produces the final deterministic rows. A batch is a run of
// rows sharing one address intern table; the collector remaps the
// table's indices to dense per-query address IDs once per distinct
// address, so no per-row work hashes a string. Aggregates are
// commutative and finish imposes the total row order, so the rows are
// independent of batch order. It is not safe for concurrent use:
// parallel scans decode concurrently and feed one collector in turn.
type collector struct {
	p        *plan
	db       *geoip.DB
	pubs     map[int32]string // torrent ID -> publisher key
	cats     map[int32]string // torrent ID -> normalized content type
	keyFrom  int
	needAddr bool // rows resolve to address IDs (distinct sets, IP or geo filter/key)

	// Torrent slots, indexed by a dense per-query torrent ordinal.
	tidSlot  []int32         // torrent ID -> 1 + ordinal (0 = unseen), for IDs < denseTIDs
	tidBig   map[int32]int32 // torrent ID -> ordinal, for the rest
	torrents []slot

	// Address slots, indexed by a dense per-query address ID.
	ipStr func(uint32) string // the current batch's intern table
	remap []uint32            // batch intern index -> 1 + address ID (0 = unseen)
	ipIDs map[string]uint32   // address -> ID, across batches
	addrs []slot

	groups     map[string]*groupState
	lastG      *groupState // the const group, or the last time bucket's
	lastBucket int64
	obs        []obsKey
}

func newCollector(p *plan, db *geoip.DB, recs []*dataset.TorrentRecord) *collector {
	c := &collector{p: p, db: db, groups: make(map[string]*groupState)}
	if p.needsMeta() {
		c.pubs = make(map[int32]string, len(recs))
		c.cats = make(map[int32]string, len(recs))
		for _, rec := range recs {
			tid := int32(rec.TorrentID)
			c.pubs[tid] = publisherKey(rec)
			c.cats[tid] = analysis.NormalizeCategory(rec.Category)
		}
	}
	switch p.q.GroupBy.Key {
	case ByTorrent, ByPublisher, ByContentType:
		c.keyFrom = keyTorrent
	case ByISP, ByCountry:
		c.keyFrom = keyAddr
	case ByTimeBucket:
		c.keyFrom = keyBucket
	}
	c.needAddr = p.ips != nil || p.needsGeo() || p.wantIPs || p.wantSwarm
	if c.needAddr {
		c.ipIDs = make(map[string]uint32)
	}
	return c
}

// setTable starts a batch whose rows index an intern table of n
// addresses, resolved by str.
func (c *collector) setTable(n int, str func(uint32) string) {
	c.ipStr = str
	if c.needAddr {
		c.remap = append(c.remap[:0], make([]uint32, n)...)
	}
}

// add offers one row of the current batch; idx indexes the batch's
// intern table. The full filter is applied here — an executor's pushdown
// only narrows what reaches add, never replaces a check — so both
// executors accept exactly the same rows.
func (c *collector) add(tid int32, idx uint32, atNs int64, seeder bool) {
	p := c.p
	if atNs < p.minNs || atNs > p.maxNs || (p.q.Filter.SeedersOnly && !seeder) {
		return
	}
	var ord uint32
	if i := uint32(tid); i < uint32(len(c.tidSlot)) && c.tidSlot[i] != 0 {
		ord = uint32(c.tidSlot[i] - 1)
	} else {
		ord = c.torrent(tid)
	}
	t := &c.torrents[ord]
	if t.drop {
		return
	}
	var id uint32
	if c.needAddr {
		if id = c.remap[idx]; id == 0 {
			id = c.addr(idx)
		}
		id--
		if c.addrs[id].drop {
			return
		}
	}

	if p.q.Select == SelectObservations {
		c.obs = append(c.obs, obsKey{atNs: atNs, ip: c.ipStr(idx), tid: tid, seeder: seeder})
		return
	}

	var gs *groupState
	switch c.keyFrom {
	case keyTorrent:
		gs = c.slotGroup(t)
	case keyAddr:
		gs = c.slotGroup(&c.addrs[id])
	case keyBucket:
		b := atNs / p.bucketNs
		if atNs%p.bucketNs < 0 { // floor division for pre-1970 instants
			b--
		}
		if gs = c.lastG; gs == nil || b != c.lastBucket {
			gs = c.group(nsTime(b * p.bucketNs).Format(timeKeyFormat))
			c.lastG, c.lastBucket = gs, b
		}
	default:
		if gs = c.lastG; gs == nil {
			gs = c.group("")
			c.lastG = gs
		}
	}

	gs.obs++
	if seeder {
		gs.seeders++
	}
	if p.wantIPs {
		gs.ips.add(id)
	}
	if p.wantTorrents {
		gs.tids.add(ord)
	}
	if p.wantSwarm {
		gs.swarms = append(gs.swarms, uint64(ord)<<32|uint64(id))
	}
}

// torrent returns tid's ordinal, creating its slot on first sight.
func (c *collector) torrent(tid int32) uint32 {
	dense := uint32(tid) < denseTIDs
	if !dense {
		if ord, ok := c.tidBig[tid]; ok {
			return uint32(ord)
		}
	}
	p := c.p
	t := slot{drop: (p.tids != nil && !p.tids[tid]) || (p.pubs != nil && !p.pubs[c.pubs[tid]])}
	switch p.q.GroupBy.Key {
	case ByTorrent:
		t.key = torrentKey(tid)
	case ByPublisher:
		t.key = c.pubs[tid]
	case ByContentType:
		t.key = c.cats[tid]
	}
	ord := int32(len(c.torrents))
	c.torrents = append(c.torrents, t)
	if dense {
		if n := int(tid) + 1; n > len(c.tidSlot) {
			c.tidSlot = append(c.tidSlot, make([]int32, n-len(c.tidSlot))...)
		}
		c.tidSlot[tid] = ord + 1
	} else {
		if c.tidBig == nil {
			c.tidBig = make(map[int32]int32)
		}
		c.tidBig[tid] = ord
	}
	return uint32(ord)
}

// addr maps the current batch's intern index to 1 + its address ID,
// creating the address's slot on first sight. Unresolvable addresses
// yield empty ISP/country — they match no ISP/country filter and group
// under the "" key in both executors.
func (c *collector) addr(idx uint32) uint32 {
	s := c.ipStr(idx)
	id, ok := c.ipIDs[s]
	if !ok {
		p := c.p
		id = uint32(len(c.addrs))
		c.ipIDs[s] = id
		a := slot{drop: p.ips != nil && !p.ips[s]}
		if p.needsGeo() {
			var rec geoip.Record
			if addr, err := dataset.ParseIP(s); err == nil {
				rec, _ = c.db.Lookup(addr)
			}
			a.drop = a.drop || (p.isps != nil && !p.isps[rec.ISP]) || (p.countries != nil && !p.countries[rec.Country])
			a.key = rec.ISP
			if p.q.GroupBy.Key == ByCountry {
				a.key = rec.Country
			}
		}
		c.addrs = append(c.addrs, a)
	}
	c.remap[idx] = id + 1
	return id + 1
}

// slotGroup returns the group of a slot's key, creating it on the first
// row that reaches it — never earlier, so a group exists only if some row
// matched the whole filter.
func (c *collector) slotGroup(s *slot) *groupState {
	if s.g == nil {
		s.g = c.group(s.key)
	}
	return s.g
}

// group finds or creates one group's accumulator.
func (c *collector) group(key string) *groupState {
	gs := c.groups[key]
	if gs == nil {
		gs = &groupState{key: key}
		c.groups[key] = gs
	}
	return gs
}

// finish sorts, paginates and renders the result.
func (c *collector) finish() (*Result, error) {
	if c.p.q.Select == SelectObservations {
		return c.finishObservations()
	}
	return c.finishGroups()
}

func (c *collector) finishObservations() (*Result, error) {
	slices.SortFunc(c.obs, func(a, b obsKey) int {
		if a.atNs != b.atNs {
			if a.atNs < b.atNs {
				return -1
			}
			return 1
		}
		if cmp := strings.Compare(a.ip, b.ip); cmp != 0 {
			return cmp
		}
		if a.tid != b.tid {
			return int(a.tid) - int(b.tid)
		}
		switch {
		case a.seeder == b.seeder:
			return 0
		case b.seeder:
			return -1
		default:
			return 1
		}
	})
	res := &Result{Total: len(c.obs)}
	lo, hi, next := c.page(len(c.obs))
	res.NextCursor = next
	if hi > lo {
		res.Observations = make([]ObsRow, 0, hi-lo)
		for _, o := range c.obs[lo:hi] {
			res.Observations = append(res.Observations, ObsRow{
				TorrentID: int(o.tid),
				IP:        o.ip,
				At:        nsTime(o.atNs),
				Seeder:    o.seeder,
			})
		}
	}
	return res, nil
}

func (c *collector) finishGroups() (*Result, error) {
	p := c.p
	rows := make([]GroupRow, 0, len(c.groups))
	for _, gs := range c.groups {
		aggs := make(map[string]int64, len(p.q.Aggs))
		for _, a := range p.q.Aggs {
			switch a {
			case AggObservations:
				aggs[a] = gs.obs
			case AggSeeders:
				aggs[a] = gs.seeders
			case AggDistinctIPs:
				aggs[a] = gs.ips.count()
			case AggTorrents:
				aggs[a] = gs.tids.count()
			case AggMaxSwarm:
				aggs[a] = maxSwarm(gs.swarms)
			}
		}
		rows = append(rows, GroupRow{Key: gs.key, Aggs: aggs})
	}

	field, desc := p.q.OrderBy.Field, p.q.OrderBy.Desc
	slices.SortFunc(rows, func(a, b GroupRow) int {
		if field != "" && field != "key" {
			va, vb := a.Aggs[field], b.Aggs[field]
			if va != vb {
				less := va < vb
				if desc {
					less = !less
				}
				if less {
					return -1
				}
				return 1
			}
		} else if desc {
			return strings.Compare(b.Key, a.Key)
		}
		return strings.Compare(a.Key, b.Key)
	})

	res := &Result{Total: len(rows)}
	lo, hi, next := c.page(len(rows))
	res.NextCursor = next
	if hi > lo {
		res.Groups = rows[lo:hi]
	}
	return res, nil
}

// maxSwarm returns the largest number of distinct addresses any one
// torrent holds among (torrent ordinal, address ID) pairs.
func maxSwarm(pairs []uint64) int64 {
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	var best, run int64
	for i, v := range pairs {
		if i > 0 && v>>32 != pairs[i-1]>>32 {
			run = 0
		}
		run++
		best = max(best, run)
	}
	return best
}

// page resolves the cursor offset and limit against n total rows.
func (c *collector) page(n int) (lo, hi int, next string) {
	lo = c.p.offset
	if lo > n {
		lo = n
	}
	hi = n
	if l := c.p.q.Limit; l > 0 && lo+l < n {
		hi = lo + l
		next = encodeCursor(hi, c.p.sig)
	}
	return lo, hi, next
}
