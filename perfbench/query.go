package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/query"
)

// Request classes of the query workload.
const (
	classScan   = "scan"
	classLookup = "lookup"
)

// scanEvery makes one request in this many a full-lake scan.
const scanEvery = 10

// poolSize is how many distinct lookups of each of the lookupKinds kinds
// the workload draws from; every distinct request is checked before
// timing.
const (
	poolSize    = 32
	lookupKinds = 3
)

// minSamples is the least number of timed requests a class needs, so
// that minBeyond of them lie beyond its p90.
const minSamples = 100

// request is one distinct HTTP request of the query workload, with the
// query it runs through the lake executor.
type request struct {
	class string
	kind  string
	path  string // GET path, or "" for POST /api/v1/query
	body  []byte
	q     query.Query
	want  []byte // the verified response body
}

func (r *request) do(s *server) (int, []byte, error) {
	var resp *http.Response
	var err error
	if r.path != "" {
		resp, err = s.c.Get(s.http.URL + r.path)
	} else {
		resp, err = s.c.Post(s.http.URL+lakeserve.APIPrefix+"/query", "application/json", bytes.NewReader(r.body))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// queryRequests builds the scan and lookup request sets from the data:
// lookups key on addresses, times and torrents that occur in it, so no
// lookup is empty. Lookup kinds interleave: lookups[i*lookupKinds+k] is
// the i-th request of kind k.
func queryRequests(ds *dataset.Dataset, seed uint64) (scans, lookups []*request) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for _, key := range []string{query.ByTorrent, query.ByISP, query.ByPublisher} {
		scans = append(scans, postRequest(classScan, "group-"+key, query.Query{
			GroupBy: query.GroupBy{Key: key},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
			OrderBy: query.OrderBy{Field: query.AggDistinctIPs, Desc: true},
			Limit:   50,
		}))
	}
	// Each kind's keys are drawn one per stratum of that kind's keys
	// ranked by how often they were observed, so every seed's pool holds
	// the same mix of busy and quiet keys.
	n := ds.Obs.Len()
	ipCount := make([]int, ds.Obs.IPs().Len())
	tidCount := make([]int, len(ds.Torrents))
	for i := 0; i < n; i++ {
		ipCount[ds.Obs.IPIndex(i)]++
		tidCount[ds.Obs.TorrentID(i)]++
	}
	ips := stratified(rng, ipCount)
	tids := stratified(rng, tidCount)
	for i := 0; i < poolSize; i++ {
		lookups = append(lookups, postRequest(classLookup, "ip", query.Query{
			Select: query.SelectObservations,
			Filter: query.Filter{IPs: []string{ds.Obs.IPs().String(uint32(ips[i]))}},
			Limit:  1000,
		}))
		from := ds.Obs.Time((i*n + rng.IntN(n)) / poolSize)
		lookups = append(lookups, postRequest(classLookup, "window", query.Query{
			Filter:  query.Filter{MinTime: from, MaxTime: from.Add(6*time.Hour - time.Nanosecond)},
			GroupBy: query.GroupBy{Key: query.ByPublisher},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
			OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
			Limit:   50,
		}))
		tid := tids[i]
		lookups = append(lookups, &request{
			class: classLookup, kind: "torrent",
			path: fmt.Sprintf("%s/torrents/%d/observations", lakeserve.APIPrefix, tid),
			q: query.Query{
				Select: query.SelectObservations,
				Filter: query.Filter{TorrentIDs: []int{tid}},
				Limit:  1000,
			},
		})
	}
	return scans, lookups
}

// stratified ranks the keys that occur (counts[key] > 0) by count, then
// key, and draws one from each of poolSize equal strata of the ranking.
func stratified(rng *rand.Rand, counts []int) []int {
	var ranked []int
	for k, c := range counts {
		if c > 0 {
			ranked = append(ranked, k)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return counts[ranked[i]] < counts[ranked[j]] })
	n := len(ranked)
	out := make([]int, poolSize)
	for i := range out {
		out[i] = ranked[(i*n+rng.IntN(n))/poolSize]
	}
	return out
}

func postRequest(class, kind string, q query.Query) *request {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a Query always marshals
	}
	return &request{class: class, kind: kind, body: body, q: q}
}

// expected renders what the endpoint must answer for r, from the
// in-memory reference executor.
func expected(b *bench, mem *query.Memory, r *request) ([]byte, error) {
	res, err := mem.Execute(b.ctx, r.q)
	if err != nil {
		return nil, err
	}
	if r.path == "" {
		return json.Marshal(res)
	}
	rows := make([]lakeserve.ObservationRow, len(res.Observations))
	for i, o := range res.Observations {
		rows[i] = lakeserve.ObservationRow{IP: o.IP, At: o.At, Seeder: o.Seeder}
	}
	return json.Marshal(rows)
}

// compact strips the indentation the server adds.
func compact(body []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		return body
	}
	return buf.Bytes()
}

// setupQuery imports ds into a fresh lake, builds the first snapshot
// through lakeserve and makes one warm-up pass over warm. It also
// returns the time lake.ImportDataset took.
func setupQuery(b *bench, dir string, ds *dataset.Dataset, warm []*request) (*server, time.Duration, error) {
	t0 := time.Now()
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		return nil, 0, err
	}
	if err := lk.ImportDataset(ds); err != nil {
		lk.Close()
		return nil, 0, err
	}
	imp := time.Since(t0)
	s := serve(b, lk)
	if code, _, _, err := s.get("/tables/1"); err != nil || code != http.StatusOK {
		s.close()
		return nil, 0, fmt.Errorf("first snapshot: status %d: %v", code, err)
	}
	for _, r := range warm {
		if code, _, err := r.do(s); err != nil || code != http.StatusOK {
			s.close()
			return nil, 0, fmt.Errorf("warm-up %s: status %d: %v", r.kind, code, err)
		}
	}
	return s, imp, nil
}

// runQuery is the query workload: one closed-loop client issues a
// seeded mix of full-lake scans and point lookups over loopback HTTP.
func runQuery(b *bench) error {
	ds, err := genInput(b)
	if err != nil {
		return err
	}
	scans, lookups := queryRequests(ds, b.seed)
	// The warm-up pass: one request of every kind.
	warm := append([]*request{}, scans...)
	warm = append(warm, lookups[:3]...)

	var imports []float64
	setup := func(n int) (*server, error) {
		s, imp, err := setupQuery(b, b.tmpDir(fmt.Sprintf("lake-%d", n)), ds, warm)
		imports = append(imports, ms(imp))
		return s, err
	}
	s, err := timeSetups(b, setup, (*server).close)
	if err != nil {
		return err
	}
	defer s.close()

	// The bulk import must hold the whole dataset, intact.
	b.attempted++
	var bad []string
	if got, want := s.lk.Stats().Observations, int64(ds.Obs.Len()); got != want {
		bad = append(bad, fmt.Sprintf("lake holds %d observations, dataset %d", got, want))
	}
	for _, err := range s.lk.Verify(b.ctx) {
		bad = append(bad, "lake verify: "+err.Error())
	}
	if len(bad) > 0 {
		b.wrong(1, "query import", bad...)
	}

	// Every distinct request must answer what the in-memory reference
	// executor answers over the same data.
	mem, err := query.NewMemory(ds, b.db)
	if err != nil {
		return err
	}
	for _, r := range append(append([]*request{}, scans...), lookups...) {
		want, err := expected(b, mem, r)
		if err != nil {
			return fmt.Errorf("reference %s: %w", r.kind, err)
		}
		code, got, err := r.do(s)
		if err != nil {
			return err
		}
		if code != http.StatusOK || !bytes.Equal(compact(got), want) {
			b.wrong(1, "query check", fmt.Sprintf("%s %s%s: status %d, body differs from the reference executor", r.kind, r.path, r.body, code))
			continue
		}
		r.want = got
	}

	lat, rejected, timeouts, wall := queryLoop(b, s, scans, lookups)
	for _, class := range []string{classScan, classLookup} {
		p90, err := tail(class, lat[class], 90)
		if err != nil {
			return err
		}
		b.meta[class+"_p90_ms"] = p90
	}
	b.metric("slow_p50_ms", median(lat[classScan]), "ms")
	b.metric("fast_p50_ms", median(lat[classLookup]), "ms")
	b.metric("ops_per_s", float64(len(lat[classScan])+len(lat[classLookup]))/wall.Seconds(), "1/s")
	st := s.lk.Stats()
	b.metric("disk_bytes_per_obs", float64(st.TotalBytes)/float64(st.Observations), "B")
	b.metric("lakeserve.rejected", float64(rejected), "count")
	b.metric("lakeserve.timeouts", float64(timeouts), "count")
	b.meta["samples"] = map[string]int{classScan: len(lat[classScan]), classLookup: len(lat[classLookup])}

	again, err := timeSetups(b, setup, (*server).close)
	if err != nil {
		return err
	}
	again.close()
	b.metric("setup_s", median(b.setups), "s")
	b.metric("lake.import_ms", median(imports), "ms")
	// Measured once set-up no longer needs the input, so that the figure
	// is the served lake's, not the dataset's.
	b.metric("retained_mb", retainedMB(s), "MB")

	if b.trace {
		if err := traceQuery(b, s.lk, scans, lookups, lat); err != nil {
			return err
		}
		return traceCampaign(b)
	}
	return nil
}

// queryLoop runs the timed closed loop until the run length is spent and
// each class has minSamples. It returns per-class latencies (ms) of the
// requests that succeeded, the 429 and 503 counts, and the wall time.
func queryLoop(b *bench, s *server, scans, lookups []*request) (map[string][]float64, int, int, time.Duration) {
	rng := rand.New(rand.NewPCG(b.seed, 0x51ab))
	lat := map[string][]float64{}
	rejected, timeouts := 0, 0
	t0 := time.Now()
	deadline := t0.Add(b.seconds)
	hardStop := t0.Add(3 * b.seconds)
	for i := 0; ; i++ {
		now := time.Now()
		enough := len(lat[classScan]) >= minSamples && len(lat[classLookup]) >= minSamples
		if now.After(hardStop) || (now.After(deadline) && enough) {
			break
		}
		// Kinds rotate, so every run times the same mix; the seed picks
		// which request of a kind is sent.
		var r *request
		if i%scanEvery == 0 {
			r = scans[(i/scanEvery)%len(scans)]
		} else {
			j := i - i/scanEvery - 1 // lookups sent so far
			r = lookups[rng.IntN(poolSize)*lookupKinds+j%lookupKinds]
		}
		b.attempted++
		start := time.Now()
		code, body, err := r.do(s)
		d := time.Since(start)
		switch {
		case err != nil:
			b.wrong(1, "query request", err.Error())
		case code == http.StatusTooManyRequests:
			rejected++
			b.failed++
		case code == http.StatusServiceUnavailable:
			timeouts++
			b.failed++
		case code != http.StatusOK || len(body) == 0 || r.want == nil || !bytes.Equal(body, r.want):
			b.wrong(1, "query request", fmt.Sprintf("%s: status %d, wrong or empty body", r.kind, code))
		default:
			lat[r.class] = append(lat[r.class], ms(d))
		}
	}
	return lat, rejected, timeouts, time.Since(t0)
}

// traceQuery calls query.Lake.Execute and Explain directly on the served
// lake, once untraced and twice traced, and derives the per-layer
// metrics; httpLat is the untraced HTTP latency per class.
func traceQuery(b *bench, lk *lake.Lake, scans, lookups []*request, httpLat map[string][]float64) error {
	ex, err := query.NewLake(lk, b.db)
	if err != nil {
		return err
	}
	// Scans are few and slow: repeat each so the p50 has samples.
	var seq []*request
	for rep := 0; rep < 5; rep++ {
		seq = append(seq, scans...)
	}
	seq = append(seq, lookups...)

	var walls []time.Duration
	var passes []map[string]metric
	var spans []Span
	for pass := 0; pass < 3; pass++ {
		var tr *Tracer
		if pass > 0 {
			tr = newTracer()
		}
		runtime.GC()
		t0 := time.Now()
		// The first snapshot lakeserve builds at set-up, driven directly.
		chain := newRefreshChain(b, lk)
		if err := chain.run(b, tr, 0, 0); err != nil {
			return err
		}
		for i, r := range seq {
			if err := tracedExecute(b, ex, r, int64(i+1), tr); err != nil {
				return err
			}
		}
		walls = append(walls, time.Since(t0))
		if tr == nil {
			continue
		}
		sp := tr.Spans()
		exact := queryExact(sp)
		exact["alert.firing"] = metric{float64(chain.firing()), "count"}
		passes = append(passes, exact)
		if spans == nil {
			spans = sp
			b.writeTrace(tr)
		}
	}
	b.exactCounts(passes[0], passes[1])

	self := selfTimes(spans)
	for _, class := range []string{classScan, classLookup} {
		var exec, alloc []float64
		for _, s := range spans {
			if s.Name == "query.Lake.Execute" && s.Counts[class] == 1 {
				exec = append(exec, ms(self[s.ID]))
				alloc = append(alloc, float64(s.Counts["alloc_bytes"])/1e3)
			}
		}
		b.metric("query."+class+".execute_ms", median(exec), "ms")
		b.metric("query."+class+".alloc_kb", mean(alloc), "kB")
		b.metric("lakeserve."+class+".query_overhead_ms", median(httpLat[class])-median(exec), "ms")
	}
	b.metric("delta.full_build_ms", median(selfMs(spans, self, "delta.Maintainer.Refresh")), "ms")
	b.metric("classify.ms", median(selfMs(spans, self, "classify")), "ms")
	b.metric("alert.evaluate_ms", median(selfMs(spans, self, "alert.Engine.Evaluate")), "ms")
	st := lk.Stats()
	b.metric("lake.segments", float64(st.Segments), "count")
	b.metric("lake.bytes", float64(st.TotalBytes), "B")
	b.metric("trace.overhead_ratio", float64(walls[1]+walls[2])/2/float64(walls[0]), "ratio")
	return nil
}

// tracedExecute runs one request's query through Explain and Execute,
// recording the executor's work at the span boundary.
func tracedExecute(b *bench, ex *query.Lake, r *request, op int64, tr *Tracer) error {
	var m0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	id := tr.Begin("query.Lake.Execute", 0, op)
	res, err := ex.Execute(b.ctx, r.q)
	if err != nil {
		return err
	}
	if tr != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		tr.End(id, map[string]int64{
			r.class:       1,
			"alloc_bytes": int64(m1.TotalAlloc - m0.TotalAlloc),
			"total":       int64(res.Total),
		})
	}
	// The untraced pass plans too, so that the overhead ratio compares
	// the same work with and without spans.
	id = tr.Begin("query.Lake.Explain", 0, op)
	plan, err := ex.Explain(b.ctx, r.q)
	if err != nil {
		return err
	}
	tr.End(id, map[string]int64{
		r.class:           1,
		"opened":          int64(len(plan.Opened)),
		"pruned_zone":     int64(plan.PrunedZone),
		"pruned_postings": int64(plan.PrunedPostings),
		"rows":            plan.Rows,
		"total":           int64(res.Total),
	})
	return nil
}

// queryExact extracts the Explain and first-snapshot counts that must
// repeat exactly.
func queryExact(spans []Span) map[string]metric {
	sums := map[string]map[string]int64{classScan: {}, classLookup: {}}
	for _, s := range spans {
		if s.Name != "query.Lake.Explain" {
			continue
		}
		class := classLookup
		if s.Counts[classScan] == 1 {
			class = classScan
		}
		for k, v := range s.Counts {
			sums[class][k] += v
		}
	}
	lk := sums[classLookup]
	return map[string]metric{
		"query.scan.segments_opened":   {float64(sums[classScan]["opened"]), "count"},
		"query.lookup.segments_opened": {float64(lk["opened"]), "count"},
		"query.lookup.pruned_zone":     {float64(lk["pruned_zone"]), "count"},
		"query.lookup.pruned_postings": {float64(lk["pruned_postings"]), "count"},
		"query.lookup.rows_per_result": {float64(lk["rows"]) / float64(lk["total"]), "ratio"},
		"classify.identities":          {float64(sumCount(spans, "classify", "identities")), "count"},
		"alert.scored":                 {float64(sumCount(spans, "alert.Engine.Evaluate", "scored")), "count"},
		"alert.changed":                {float64(sumCount(spans, "alert.Engine.Evaluate", "changed")), "count"},
	}
}
