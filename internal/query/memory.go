// The in-memory executor: answers queries over a dataset.Dataset (the
// same columnar store the analysis index reads). Torrent-ID filters are
// pushed into the store's per-torrent counting-sort index instead of
// scanning every observation, mirroring the lake executor's zone-map
// pushdown.
package query

import (
	"context"
	"errors"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
)

// Memory executes queries over an in-memory dataset.
type Memory struct {
	ds *dataset.Dataset
	db *geoip.DB
}

// NewMemory wraps a dataset for querying. db resolves peer addresses
// for ISP/country filters and groupings.
func NewMemory(ds *dataset.Dataset, db *geoip.DB) (*Memory, error) {
	if ds == nil || db == nil {
		return nil, errors.New("query: dataset and geo DB required")
	}
	return &Memory{ds: ds, db: db}, nil
}

// checkEvery bounds how long a scan runs between context checks.
const checkEvery = 1 << 16

// Execute answers one query.
func (m *Memory) Execute(ctx context.Context, q Query) (*Result, error) {
	if q.Filter.AsOf != 0 {
		// A dataset is one snapshot; there is no version history to pin.
		return nil, badf("bad_query", "filter.as_of requires a lake-backed executor")
	}
	p, perr := newPlan(q)
	if perr != nil {
		return nil, perr
	}
	var recs []*dataset.TorrentRecord
	if p.needsMeta() {
		recs = m.ds.Torrents
	}
	// The whole store is one batch over its intern table.
	c := newCollector(p, m.db, recs)
	store := &m.ds.Obs
	c.setTable(store.IPs().Len(), store.IPs().String)

	if p.tids != nil {
		// Pushdown: walk only the filtered torrents' index spans.
		ix := store.Index()
		n := 0
		for tid := range p.tids {
			for _, oi := range ix.Span(int(tid)) {
				i := int(oi)
				c.add(int32(store.TorrentID(i)), store.IPIndex(i), store.UnixNano(i), store.Seeder(i))
				if n++; n%checkEvery == 0 && ctx.Err() != nil {
					return nil, ctx.Err()
				}
			}
		}
		return c.finish()
	}

	for i := 0; i < store.Len(); i++ {
		c.add(int32(store.TorrentID(i)), store.IPIndex(i), store.UnixNano(i), store.Seeder(i))
		if i%checkEvery == checkEvery-1 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return c.finish()
}
