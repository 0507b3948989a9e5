package query_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"btpub/internal/campaign"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/population"
	"btpub/internal/query"
)

// campaignFixture runs one adversarial campaign and imports it into a
// many-segment lake, shared by every equivalence assertion. The lake
// executor is held in all three parallelism shapes the engine supports:
// serial (one worker), default (GOMAXPROCS) and explicitly parallel
// (more workers than this machine has cores, so concurrent decodes
// contend for the shared collector even on small runners).
type campaignFixture struct {
	ds  *dataset.Dataset
	lk  *lake.Lake
	db  *geoip.DB
	mem *query.Memory
	lkx *query.Lake // default parallelism
	lks *query.Lake // serial: one scan worker
	lkp *query.Lake // parallel: 8 scan workers
}

var (
	fixtureOnce sync.Once
	fixtureDS   *dataset.Dataset
	fixtureErr  error
)

func newFixture(t *testing.T) *campaignFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		res, err := campaign.Run(campaign.Spec{
			Scale: 0.01, MeanDownloads: 120, Style: campaign.PB10, Seed: 42,
			Scenarios: population.AllScenarios,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureDS = res.Dataset
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	// Small segments force many zone-map entries, so pushdown paths and
	// batch-boundary handling actually get exercised.
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{FlushRows: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	if err := lk.ImportDataset(fixtureDS); err != nil {
		t.Fatal(err)
	}
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := query.NewMemory(fixtureDS, db)
	if err != nil {
		t.Fatal(err)
	}
	lkx, err := query.NewLake(lk, db)
	if err != nil {
		t.Fatal(err)
	}
	return &campaignFixture{
		ds: fixtureDS, lk: lk, db: db, mem: mem,
		lkx: lkx, lks: lkx.WithWorkers(1), lkp: lkx.WithWorkers(8),
	}
}

// lakeExecutors names the fixture's lake executor variants; every
// equivalence case must hold for each of them against the in-memory
// executor.
func (f *campaignFixture) lakeExecutors() []struct {
	name string
	ex   *query.Lake
} {
	return []struct {
		name string
		ex   *query.Lake
	}{
		{"lake-serial", f.lks},
		{"lake-default", f.lkx},
		{"lake-parallel", f.lkp},
	}
}

// someIPs picks a few distinct observed addresses, so IP point-lookup
// equivalence queries are not vacuous.
func (f *campaignFixture) someIPs(n int) []string {
	seen := map[string]bool{}
	var out []string
	store := &f.ds.Obs
	for i := 0; i < store.Len() && len(out) < n; i++ {
		ip := store.IPString(i)
		if ip == "" || seen[ip] {
			continue
		}
		seen[ip] = true
		out = append(out, ip)
	}
	return out
}

// observedGeo picks a (ISP, country) pair actually present in the data,
// so geo-filtered equivalence queries are not vacuous.
func (f *campaignFixture) observedGeo(t *testing.T) (string, string) {
	t.Helper()
	store := &f.ds.Obs
	for i := 0; i < store.Len(); i++ {
		addr := store.Addr(i)
		if !addr.IsValid() {
			continue
		}
		if rec, err := f.db.Lookup(addr); err == nil {
			return rec.ISP, rec.Country
		}
	}
	t.Fatal("no observation address resolves in the geo DB")
	return "", ""
}

// somePublishers picks a few usernames present in the records.
func (f *campaignFixture) somePublishers(n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, rec := range f.ds.Torrents {
		if rec.Username == "" || seen[rec.Username] {
			continue
		}
		seen[rec.Username] = true
		out = append(out, rec.Username)
		if len(out) == n {
			break
		}
	}
	return out
}

// TestExecutorEquivalence is the acceptance gate: query.Execute must
// return identical rows — compared as serialized bytes — from the
// in-memory and the lake-backed executor, across a battery of filters,
// groupings, aggregates, orderings and pagination states over an
// adversarial-scenario campaign.
func TestExecutorEquivalence(t *testing.T) {
	f := newFixture(t)
	isp, country := f.observedGeo(t)
	pubs := f.somePublishers(3)
	if len(pubs) == 0 {
		t.Fatal("campaign produced no usernames")
	}
	targetIPs := f.someIPs(3)
	if len(targetIPs) < 3 {
		t.Fatal("campaign produced fewer than 3 distinct addresses")
	}
	start, end := f.ds.Start, f.ds.End
	mid := start.Add(end.Sub(start) / 2)

	allAggs := []string{
		query.AggObservations, query.AggDistinctIPs, query.AggSeeders,
		query.AggTorrents, query.AggMaxSwarm,
	}
	cases := []struct {
		name string
		q    query.Query
	}{
		{"total-row", query.Query{Aggs: allAggs}},
		{"by-publisher", query.Query{
			GroupBy: query.GroupBy{Key: query.ByPublisher},
			Aggs:    allAggs,
			OrderBy: query.OrderBy{Field: query.AggDistinctIPs, Desc: true},
		}},
		{"by-isp-window", query.Query{
			Filter:  query.Filter{MinTime: start, MaxTime: mid},
			GroupBy: query.GroupBy{Key: query.ByISP},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
			OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
		}},
		{"by-country-seeders", query.Query{
			Filter:  query.Filter{SeedersOnly: true},
			GroupBy: query.GroupBy{Key: query.ByCountry},
			Aggs:    []string{query.AggObservations, query.AggSeeders},
		}},
		{"by-content-type", query.Query{
			GroupBy: query.GroupBy{Key: query.ByContentType},
			Aggs:    []string{query.AggTorrents, query.AggObservations},
		}},
		{"by-torrent-swarm", query.Query{
			GroupBy: query.GroupBy{Key: query.ByTorrent},
			Aggs:    []string{query.AggDistinctIPs, query.AggMaxSwarm},
			OrderBy: query.OrderBy{Field: query.AggMaxSwarm, Desc: true},
			Limit:   25,
		}},
		{"by-time-bucket", query.Query{
			GroupBy: query.GroupBy{Key: query.ByTimeBucket, Bucket: query.Duration(6 * time.Hour)},
			Aggs:    []string{query.AggObservations, query.AggSeeders, query.AggDistinctIPs},
		}},
		{"publisher-filter", query.Query{
			Filter:  query.Filter{Publishers: pubs},
			GroupBy: query.GroupBy{Key: query.ByPublisher},
			Aggs:    allAggs,
		}},
		{"publisher-filter-with-window", query.Query{
			Filter:  query.Filter{Publishers: pubs, MinTime: mid},
			GroupBy: query.GroupBy{Key: query.ByTorrent},
			Aggs:    []string{query.AggObservations},
		}},
		{"isp-filter", query.Query{
			Filter:  query.Filter{ISPs: []string{isp}},
			GroupBy: query.GroupBy{Key: query.ByISP},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
		}},
		{"isp-filter-by-torrent", query.Query{
			// The ISP filter and nothing else resolves geo: the per-address
			// memo serves the filter while the key comes from the torrent.
			Filter:  query.Filter{ISPs: []string{isp}},
			GroupBy: query.GroupBy{Key: query.ByTorrent},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
			OrderBy: query.OrderBy{Field: query.AggDistinctIPs, Desc: true},
		}},
		{"by-country-distinct", query.Query{
			GroupBy: query.GroupBy{Key: query.ByCountry},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
		}},
		{"by-content-type-distinct", query.Query{
			GroupBy: query.GroupBy{Key: query.ByContentType},
			Aggs:    []string{query.AggDistinctIPs, query.AggSeeders},
			OrderBy: query.OrderBy{Field: query.AggDistinctIPs, Desc: true},
		}},
		{"country-filter", query.Query{
			Filter:  query.Filter{Countries: []string{country}},
			GroupBy: query.GroupBy{Key: query.ByCountry},
			Aggs:    []string{query.AggObservations},
		}},
		{"torrent-id-filter", query.Query{
			Filter:  query.Filter{TorrentIDs: []int{0, 1, 2, 3, 4, 5}},
			GroupBy: query.GroupBy{Key: query.ByTorrent},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
		}},
		{"no-match-publisher", query.Query{
			Filter:  query.Filter{Publishers: []string{"nobody-by-this-name"}},
			GroupBy: query.GroupBy{Key: query.ByPublisher},
		}},
		{"observations-one-torrent", query.Query{
			Select: query.SelectObservations,
			// The first observation's torrent is guaranteed to be observed.
			Filter: query.Filter{TorrentIDs: []int{f.ds.Obs.TorrentID(0)}},
		}},
		{"observations-window-seeders", query.Query{
			Select: query.SelectObservations,
			Filter: query.Filter{MinTime: mid, SeedersOnly: true},
			Limit:  200,
		}},
		{"ip-point-lookup", query.Query{
			Filter:  query.Filter{IPs: targetIPs[:1]},
			GroupBy: query.GroupBy{Key: query.ByTorrent},
			Aggs:    []string{query.AggObservations, query.AggSeeders},
		}},
		{"ip-multi-lookup", query.Query{
			Filter:  query.Filter{IPs: targetIPs},
			GroupBy: query.GroupBy{Key: query.ByPublisher},
			Aggs:    allAggs,
		}},
		{"ip-lookup-observations", query.Query{
			Select: query.SelectObservations,
			Filter: query.Filter{IPs: targetIPs[:1]},
		}},
		{"ip-lookup-no-match", query.Query{
			Filter:  query.Filter{IPs: []string{"203.0.113.254"}},
			GroupBy: query.GroupBy{Key: query.ByTorrent},
		}},
	}

	ctx := context.Background()
	nonEmpty := 0
	var maxDistinct int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := mustJSON(t, exec(t, f.mem, ctx, tc.q))
			for _, le := range f.lakeExecutors() {
				if got := mustJSON(t, exec(t, le.ex, ctx, tc.q)); got != want {
					t.Errorf("%s diverges from memory:\nmemory: %.2000s\nlake:   %.2000s", le.name, want, got)
				}
			}
			var res query.Result
			if err := json.Unmarshal([]byte(want), &res); err != nil {
				t.Fatal(err)
			}
			if res.Total > 0 {
				nonEmpty++
			} else {
				t.Logf("case %q matched nothing", tc.name)
			}
			for _, g := range res.Groups {
				maxDistinct = max(maxDistinct, g.Aggs[query.AggDistinctIPs])
			}
		})
	}
	if nonEmpty < len(cases)-2 { // only the two no-match cases may be empty
		t.Errorf("only %d/%d cases matched data — fixture too sparse for a meaningful gate", nonEmpty, len(cases))
	}
	// Distinct-IP sets are bitsets of 64-bit words: a count past 64 shows
	// a set spanning several words.
	if maxDistinct <= 64 {
		t.Errorf("largest distinct-IP count is %d — no set crosses a bitset word boundary", maxDistinct)
	}
}

// TestExecutorEquivalenceCursorWalk pages both executors through the
// same grouped query and requires every page to agree.
func TestExecutorEquivalenceCursorWalk(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	q := query.Query{
		GroupBy: query.GroupBy{Key: query.ByPublisher},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
		OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
		Limit:   7,
	}
	for page := 0; ; page++ {
		mres := exec(t, f.mem, ctx, q)
		want := mustJSON(t, mres)
		var lres *query.Result
		for _, le := range f.lakeExecutors() {
			lres = exec(t, le.ex, ctx, q)
			if got := mustJSON(t, lres); got != want {
				t.Fatalf("page %d: %s diverges:\nmemory: %s\nlake:   %s", page, le.name, want, got)
			}
		}
		if lres.NextCursor == "" {
			if page == 0 {
				t.Fatal("grouped query fit one page — raise the fixture size or drop the limit")
			}
			return
		}
		q.Cursor = lres.NextCursor
		if page > 100 {
			t.Fatal("cursor walk did not terminate")
		}
	}
}

// TestExecutorEquivalenceAsOf pins a query to the journal head version,
// then keeps appending and committing new observations while replaying
// the pinned query: every replay must be byte-identical to the result
// captured before the writes started, as_of head must equal unpinned,
// and the in-memory executor must reject pinning outright.
func TestExecutorEquivalenceAsOf(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	q := query.Query{
		GroupBy: query.GroupBy{Key: query.ByPublisher},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs, query.AggSeeders},
		OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
	}
	want := mustJSON(t, exec(t, f.lkx, ctx, q))

	pin := f.lk.Version()
	qPin := q
	qPin.Filter.AsOf = pin
	if got := mustJSON(t, exec(t, f.lkx, ctx, qPin)); got != want {
		t.Fatalf("as_of head diverges from unpinned:\nunpinned: %.2000s\npinned:   %.2000s", want, got)
	}

	// The in-memory executor has no history to pin.
	var qe *query.Error
	if _, err := f.mem.Execute(ctx, qPin); !errors.As(err, &qe) || qe.Code != "bad_query" {
		t.Fatalf("memory executor accepted as_of: %v", err)
	}
	// Nor can the lake serve a version that does not exist yet.
	qFuture := q
	qFuture.Filter.AsOf = pin + 1_000
	if _, err := f.lkx.Execute(ctx, qFuture); !errors.As(err, &qe) || qe.Code != "bad_query" {
		t.Fatalf("future as_of not rejected as bad_query: %v", err)
	}

	// A writer commits new observations under the replaying queries. The
	// rows reuse committed torrent IDs, so unpinned results genuinely
	// change while the pinned ones must not.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := f.ds.End
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			at = at.Add(time.Second)
			if err := f.lk.Append(dataset.Observation{
				TorrentID: f.ds.Obs.TorrentID(0),
				IP:        fmt.Sprintf("192.0.2.%d", i%250),
				At:        at,
				Seeder:    true,
			}); err != nil {
				t.Errorf("writer append: %v", err)
				return
			}
			if i%512 == 511 {
				if err := f.lk.Flush(); err != nil {
					t.Errorf("writer flush: %v", err)
					return
				}
			}
		}
	}()
	for iter := 0; iter < 10; iter++ {
		for _, le := range f.lakeExecutors() {
			if got := mustJSON(t, exec(t, le.ex, ctx, qPin)); got != want {
				t.Errorf("iter %d: pinned %s drifted under concurrent ingest", iter, le.name)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := f.lk.Flush(); err != nil {
		t.Fatal(err)
	}
	if f.lk.Version() <= pin {
		t.Fatalf("writer committed nothing (version still %d) — the replay loop pinned nothing real", pin)
	}
	if got := mustJSON(t, exec(t, f.lkx, ctx, qPin)); got != want {
		t.Fatal("pinned result drifted after the writer finished")
	}
	if got := mustJSON(t, exec(t, f.lkx, ctx, q)); got == want {
		t.Fatal("unpinned result did not change — the writer's commits are invisible")
	}
}

type executor interface {
	Execute(context.Context, query.Query) (*query.Result, error)
}

func exec(t *testing.T, e executor, ctx context.Context, q query.Query) *query.Result {
	t.Helper()
	res, err := e.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLakeQueryPushdown is the zone-map acceptance gate at the query
// layer: a grouped aggregate over a 2% time window of a one-million-
// observation lake must open at most 2 of its segments.
func TestLakeQueryPushdown(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{FlushRows: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	const total = 1_000_000
	for i := 0; i < total; i++ {
		err := lk.Append(dataset.Observation{
			TorrentID: i % 1000,
			IP:        fmt.Sprintf("10.%d.%d.%d", i%4, (i/4)%250, (i/1000)%250),
			At:        t0.Add(time.Duration(i) * time.Second),
			Seeder:    i%64 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	st := lk.Stats()
	if st.Segments < 10 {
		t.Fatalf("segments = %d, want many", st.Segments)
	}
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	lkx, err := query.NewLake(lk, db)
	if err != nil {
		t.Fatal(err)
	}

	windowNs := int64(total) * int64(time.Second) * 2 / 100
	q := query.Query{
		Filter: query.Filter{
			MinTime: t0.Add(time.Duration(int64(total)*int64(time.Second) - windowNs)),
		},
		GroupBy: query.GroupBy{Key: query.ByTimeBucket, Bucket: query.Duration(30 * time.Minute)},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs, query.AggSeeders},
	}
	before := lk.Stats()
	res, err := lkx.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	after := lk.Stats()

	read := after.SegmentsRead - before.SegmentsRead
	if read > 2 {
		t.Fatalf("2%% time-window grouped query read %d segments, want <= 2", read)
	}
	var obs int64
	for _, g := range res.Groups {
		obs += g.Aggs[query.AggObservations]
	}
	// Observations sit at seconds 0..total-1, so the inclusive window
	// [total-window, total-1] holds exactly windowNs seconds of them.
	if want := windowNs / int64(time.Second); obs != want {
		t.Fatalf("window observations = %d, want %d", obs, want)
	}
}

// TestLakeQueryPointLookup is the microindex acceptance gate: an IP
// point lookup against a many-segment lake whose blooms are saturated
// (thousands of distinct addresses per segment) must open only the one
// segment that actually holds the address — postings prune the rest.
func TestLakeQueryPointLookup(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{FlushRows: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	// Every row gets a distinct address, so each 4096-row segment holds
	// ~4096 distinct IPs — far past the point where the 64-bit segment
	// bloom saturates and answers "maybe" for everything.
	const total = 120_000
	const target = "198.51.100.7"
	const targetRow = 57_003
	for i := 0; i < total; i++ {
		ip := fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
		if i == targetRow {
			ip = target
		}
		err := lk.Append(dataset.Observation{
			TorrentID: i % 100,
			IP:        ip,
			At:        t0.Add(time.Duration(i) * time.Second),
			Seeder:    i%3 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := lk.Stats().Segments
	if segs < 10 {
		t.Fatalf("segments = %d, want many", segs)
	}
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	lkx, err := query.NewLake(lk, db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := query.Query{
		Filter:  query.Filter{IPs: []string{target}},
		GroupBy: query.GroupBy{Key: query.ByTorrent},
		Aggs:    []string{query.AggObservations},
	}

	// The plan alone must already pin the scan to one segment.
	pl, err := lkx.Explain(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Opened) != 1 {
		t.Fatalf("plan opens %d segments (%v), want exactly 1", len(pl.Opened), pl.Opened)
	}
	if pl.PrunedPostings == 0 {
		t.Fatalf("plan pruned no segments via postings: %+v", pl)
	}
	if pl.PrunedZone+pl.PrunedPostings+len(pl.Opened) != pl.Segments {
		t.Fatalf("plan does not account for every segment: %+v", pl)
	}

	before := lk.Stats()
	res, err := lkx.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	after := lk.Stats()
	if read := after.SegmentsRead - before.SegmentsRead; read != 1 {
		t.Fatalf("point lookup read %d segments, want exactly 1", read)
	}
	if skipped := after.SegmentsSkippedPostings - before.SegmentsSkippedPostings; skipped < int64(segs)-2 {
		t.Fatalf("postings skipped only %d of %d segments", skipped, segs)
	}
	if len(res.Groups) != 1 || res.Groups[0].Key != fmt.Sprint(targetRow%100) ||
		res.Groups[0].Aggs[query.AggObservations] != 1 {
		t.Fatalf("point lookup result wrong: %s", mustJSON(t, res))
	}
}
