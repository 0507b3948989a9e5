// Package query is the one composable query engine behind every API
// surface of the reproduction: a typed filter → group → aggregate →
// order → paginate pipeline over tracker observations. The paper's
// pre-baked outputs (Tables 1–3, top-publisher rankings, fake cohorts)
// answer exactly the questions the authors asked; the follow-up studies
// (per-ISP slices, per-time-window fake hunts, per-publisher cohorts à
// la TorrentGuard) need arbitrary slices of the same data. A Query
// expresses those slices once, and two interchangeable executors answer
// it: Memory runs over an in-memory dataset.Dataset (the analysis
// index's store), Lake compiles the filter into a lake.Predicate for
// zone-map pushdown and aggregates the streamed batches without ever
// materializing a dataset. Both are required — and tested — to return
// identical rows for the same committed data.
package query

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"time"
)

// Group-by keys.
const (
	ByPublisher   = "publisher"    // the torrent's portal username ("ip:<addr>" for mn08-style records)
	ByISP         = "isp"          // the observed peer address's provider
	ByCountry     = "country"      // the observed peer address's country
	ByTorrent     = "torrent"      // the torrent ID, as a decimal string
	ByContentType = "content-type" // the torrent's Figure 2 category (Video/Audio/…)
	ByTimeBucket  = "time-bucket"  // the observation time floored to GroupBy.Bucket (RFC3339 key)
)

// Aggregates.
const (
	AggObservations = "observations" // matching sightings
	AggDistinctIPs  = "distinct-ips" // distinct observed addresses
	AggSeeders      = "seeders"      // matching seeder sightings
	AggTorrents     = "torrents"     // distinct torrents observed
	AggMaxSwarm     = "max-swarm"    // largest single-torrent distinct-IP swarm in the group
)

// Select modes.
const (
	SelectGroups       = "groups"       // aggregate rows, one per group (the default)
	SelectObservations = "observations" // raw matching observations in canonical time order
)

// MaxLimit bounds Query.Limit: a page can never exceed one million rows.
const MaxLimit = 1_000_000

// Error is the structured error every invalid query yields: Code is a
// stable machine-readable slug ("bad_query", "bad_cursor"), Message the
// human explanation. HTTP layers render it as the {"error": {...}}
// envelope with status 400.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

func badf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Duration is a time.Duration that marshals as its string form ("6h")
// and unmarshals from either a duration string or integer nanoseconds.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"6h\" or integer nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// Filter selects observations. The zero value matches everything. Both
// time bounds are inclusive, matching lake.Predicate, so the lake
// executor's pushdown and the in-memory scan agree exactly.
type Filter struct {
	MinTime time.Time `json:"min_time,omitzero"`
	MaxTime time.Time `json:"max_time,omitzero"`
	// TorrentIDs restricts to these torrents (nil/empty = all).
	TorrentIDs []int `json:"torrent_ids,omitempty"`
	// Publishers restricts to torrents published by these usernames
	// ("ip:<addr>" identities included). Names must be non-empty — that
	// invariant is what lets the lake executor push the filter down as a
	// torrent-ID set without diverging from the in-memory executor on
	// observations whose torrent has no metadata record.
	Publishers []string `json:"publishers,omitempty"`
	// IPs restricts to observations of these exact peer address strings
	// — the point-lookup filter ("every observation of IP x"). The lake
	// executor pushes it down to per-segment microindex postings, so
	// only segments that actually observed one of the addresses are
	// opened.
	IPs []string `json:"ips,omitempty"`
	// ISPs restricts to observations whose peer address resolves to one
	// of these providers.
	ISPs []string `json:"isps,omitempty"`
	// Countries restricts to observations whose peer address resolves to
	// one of these countries.
	Countries []string `json:"countries,omitempty"`
	// SeedersOnly keeps only seeder sightings.
	SeedersOnly bool `json:"seeders_only,omitempty"`
	// AsOf pins the query to the lake state committed at this journal
	// version (0 = current head), so the same query replays
	// byte-identically while ingest continues. Lake executor only; the
	// in-memory executor has no version history and rejects it.
	AsOf uint64 `json:"as_of,omitempty"`
}

// GroupBy names the grouping dimension. The zero value groups everything
// into one row with key "".
type GroupBy struct {
	Key string `json:"key,omitempty"`
	// Bucket is the time-bucket width; required (positive) when Key is
	// "time-bucket", forbidden otherwise.
	Bucket Duration `json:"bucket,omitempty"`
}

// OrderBy sorts the group rows. Field is "key" or one of the requested
// aggregates; ties (and the zero value) fall back to ascending key, so
// row order is total and identical across executors.
type OrderBy struct {
	Field string `json:"field,omitempty"`
	Desc  bool   `json:"desc,omitempty"`
}

// Query is one request against the observation data.
type Query struct {
	// Select picks the result shape: "groups" (default) or "observations".
	Select  string  `json:"select,omitempty"`
	Filter  Filter  `json:"filter,omitzero"`
	GroupBy GroupBy `json:"group_by,omitzero"`
	// Aggs lists the aggregates to compute per group (default:
	// ["observations"]). Ignored — and forbidden — in observations mode.
	Aggs    []string `json:"aggs,omitempty"`
	OrderBy OrderBy  `json:"order_by,omitzero"`
	// Limit caps the returned rows (0 = all, max MaxLimit). When more
	// rows remain, the result carries a NextCursor.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paginated walk; it must come from a Result of the
	// same query (same select/filter/grouping/aggs/order — a foreign
	// cursor is a bad_cursor error). The token is an offset into the
	// query's deterministic row order, so a walk is exact over unchanged
	// data; if the lake commits new observations mid-walk, later pages
	// reflect the new ordering and rows near a page boundary can shift.
	// Walks that must be exact over a live lake should pin their window
	// with Filter.MaxTime at the first page's commit point.
	Cursor string `json:"cursor,omitempty"`
}

// GroupRow is one aggregate row.
type GroupRow struct {
	Key string `json:"key"`
	// Aggs holds the requested aggregates by name (JSON object keys are
	// emitted sorted, so serialized rows are canonical).
	Aggs map[string]int64 `json:"aggs"`
}

// ObsRow is one raw observation row (Select "observations").
type ObsRow struct {
	TorrentID int       `json:"torrent_id"`
	IP        string    `json:"ip"`
	At        time.Time `json:"at"`
	Seeder    bool      `json:"seeder,omitempty"`
}

// Result is a query answer. Exactly one of Groups/Observations is
// populated, per the query's Select.
type Result struct {
	Groups       []GroupRow `json:"groups,omitempty"`
	Observations []ObsRow   `json:"observations,omitempty"`
	// Total counts the rows the query matched before pagination.
	Total int `json:"total"`
	// NextCursor resumes the walk when Limit truncated the result.
	NextCursor string `json:"next_cursor,omitempty"`
}

var validAggs = map[string]bool{
	AggObservations: true,
	AggDistinctIPs:  true,
	AggSeeders:      true,
	AggTorrents:     true,
	AggMaxSwarm:     true,
}

var validGroupKeys = map[string]bool{
	"":            true,
	ByPublisher:   true,
	ByISP:         true,
	ByCountry:     true,
	ByTorrent:     true,
	ByContentType: true,
	ByTimeBucket:  true,
}

// Validate checks the query. The returned error, when non-nil, is always
// a *Error.
func (q Query) Validate() error {
	if _, _, _, err := q.normalize(); err != nil {
		return err
	}
	return nil
}

// normalize validates and fills defaults (Select, Aggs), returning the
// canonical form shared by both executors together with its cursor
// signature and the decoded cursor offset.
func (q Query) normalize() (Query, uint64, int, *Error) {
	switch q.Select {
	case "":
		q.Select = SelectGroups
	case SelectGroups, SelectObservations:
	default:
		return q, 0, 0, badf("bad_query", "select must be %q or %q (got %q)", SelectGroups, SelectObservations, q.Select)
	}

	f := q.Filter
	if !f.MinTime.IsZero() && !f.MaxTime.IsZero() && f.MinTime.After(f.MaxTime) {
		return q, 0, 0, badf("bad_query", "filter.min_time %s is after filter.max_time %s",
			f.MinTime.Format(time.RFC3339), f.MaxTime.Format(time.RFC3339))
	}
	for _, id := range f.TorrentIDs {
		if id < 0 {
			return q, 0, 0, badf("bad_query", "filter.torrent_ids must be non-negative (got %d)", id)
		}
	}
	for _, set := range []struct {
		name string
		vals []string
	}{{"publishers", f.Publishers}, {"ips", f.IPs}, {"isps", f.ISPs}, {"countries", f.Countries}} {
		for _, v := range set.vals {
			if v == "" {
				return q, 0, 0, badf("bad_query", "filter.%s must not contain empty strings", set.name)
			}
		}
	}

	if q.Select == SelectObservations {
		if q.GroupBy != (GroupBy{}) {
			return q, 0, 0, badf("bad_query", "group_by is not allowed with select %q", SelectObservations)
		}
		if len(q.Aggs) > 0 {
			return q, 0, 0, badf("bad_query", "aggs are not allowed with select %q", SelectObservations)
		}
		if q.OrderBy != (OrderBy{}) {
			return q, 0, 0, badf("bad_query", "order_by is not allowed with select %q (rows come in time order)", SelectObservations)
		}
	} else {
		if !validGroupKeys[q.GroupBy.Key] {
			return q, 0, 0, badf("bad_query", "unknown group_by.key %q", q.GroupBy.Key)
		}
		if q.GroupBy.Key == ByTimeBucket && q.GroupBy.Bucket <= 0 {
			return q, 0, 0, badf("bad_query", "group_by.bucket must be positive with key %q", ByTimeBucket)
		}
		if q.GroupBy.Key != ByTimeBucket && q.GroupBy.Bucket != 0 {
			return q, 0, 0, badf("bad_query", "group_by.bucket is only allowed with key %q", ByTimeBucket)
		}
		if len(q.Aggs) == 0 {
			q.Aggs = []string{AggObservations}
		}
		seen := map[string]bool{}
		for _, a := range q.Aggs {
			if !validAggs[a] {
				return q, 0, 0, badf("bad_query", "unknown aggregate %q", a)
			}
			if seen[a] {
				return q, 0, 0, badf("bad_query", "duplicate aggregate %q", a)
			}
			seen[a] = true
		}
		if of := q.OrderBy.Field; of != "" && of != "key" && !seen[of] {
			return q, 0, 0, badf("bad_query", "order_by.field %q is neither \"key\" nor a requested aggregate", of)
		}
	}

	if q.Limit < 0 {
		return q, 0, 0, badf("bad_query", "limit must be non-negative (got %d)", q.Limit)
	}
	if q.Limit > MaxLimit {
		return q, 0, 0, badf("bad_query", "limit %d exceeds the maximum %d", q.Limit, MaxLimit)
	}
	// The signature covers the normalized query (defaults filled), so a
	// cursor stays valid whether the client spelled the defaults out.
	sig := q.sig()
	offset, err := decodeCursor(q.Cursor, sig)
	return q, sig, offset, err
}

// Decode parses and validates a JSON query. Unknown fields and trailing
// garbage are rejected; every error is a *Error.
func Decode(data []byte) (*Query, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q Query
	if err := dec.Decode(&q); err != nil {
		return nil, badf("bad_query", "invalid query JSON: %v", err)
	}
	// Only io.EOF means a clean end: nil means trailing valid JSON, any
	// other error means trailing garbage.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, badf("bad_query", "trailing data after the query object")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// ---------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------

// cursorPayload is the decoded pagination token: a row offset plus a
// signature of the query it belongs to, so a cursor pasted under a
// different query fails loudly instead of returning misaligned pages.
type cursorPayload struct {
	Offset int    `json:"o"`
	Sig    uint64 `json:"s"`
}

// sig fingerprints everything that determines row identity and order —
// Limit and Cursor excluded, so page size may vary mid-walk.
func (q Query) sig() uint64 {
	key := struct {
		Select  string
		Filter  Filter
		GroupBy GroupBy
		Aggs    []string
		OrderBy OrderBy
	}{q.Select, q.Filter, q.GroupBy, q.Aggs, q.OrderBy}
	b, err := json.Marshal(key)
	if err != nil {
		// Query fields are plain data; Marshal cannot fail on them.
		panic("query: sig marshal: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func encodeCursor(offset int, sig uint64) string {
	b, _ := json.Marshal(cursorPayload{Offset: offset, Sig: sig})
	return base64.RawURLEncoding.EncodeToString(b)
}

func decodeCursor(s string, sig uint64) (int, *Error) {
	if s == "" {
		return 0, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, badf("bad_cursor", "cursor is not base64url: %v", err)
	}
	var p cursorPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return 0, badf("bad_cursor", "cursor payload is not valid: %v", err)
	}
	if p.Offset < 0 {
		return 0, badf("bad_cursor", "cursor offset %d is negative", p.Offset)
	}
	if p.Sig != sig {
		return 0, badf("bad_cursor", "cursor does not belong to this query")
	}
	return p.Offset, nil
}

// timeKeyFormat renders time-bucket group keys.
const timeKeyFormat = time.RFC3339Nano

// torrentKey renders a torrent-ID group key.
func torrentKey(tid int32) string { return strconv.Itoa(int(tid)) }

// nsTime converts a column timestamp back to its UTC instant.
func nsTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }
