package query

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
)

var qT0 = time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)

func TestValidate(t *testing.T) {
	ok := []Query{
		{},
		{Select: SelectGroups},
		{GroupBy: GroupBy{Key: ByPublisher}, Aggs: []string{AggObservations, AggDistinctIPs}},
		{GroupBy: GroupBy{Key: ByTimeBucket, Bucket: Duration(time.Hour)}},
		{Select: SelectObservations, Filter: Filter{TorrentIDs: []int{1, 2}}, Limit: 10},
		{GroupBy: GroupBy{Key: ByISP}, Aggs: []string{AggSeeders}, OrderBy: OrderBy{Field: AggSeeders, Desc: true}},
		{OrderBy: OrderBy{Field: "key"}},
	}
	for i, q := range ok {
		if err := q.Validate(); err != nil {
			t.Errorf("ok[%d] rejected: %v", i, err)
		}
	}

	bad := []struct {
		q    Query
		want string // substring of the message
	}{
		{Query{Select: "rows"}, "select"},
		{Query{GroupBy: GroupBy{Key: "user"}}, "group_by.key"},
		{Query{GroupBy: GroupBy{Key: ByTimeBucket}}, "bucket"},
		{Query{GroupBy: GroupBy{Key: ByISP, Bucket: Duration(time.Hour)}}, "bucket"},
		{Query{Aggs: []string{"downloads"}}, "aggregate"},
		{Query{Aggs: []string{AggSeeders, AggSeeders}}, "duplicate"},
		{Query{OrderBy: OrderBy{Field: AggDistinctIPs}}, "order_by.field"},
		{Query{Limit: -1}, "limit"},
		{Query{Limit: MaxLimit + 1}, "limit"},
		{Query{Filter: Filter{TorrentIDs: []int{-3}}}, "torrent_ids"},
		{Query{Filter: Filter{Publishers: []string{"a", ""}}}, "publishers"},
		{Query{Filter: Filter{ISPs: []string{""}}}, "isps"},
		{Query{Filter: Filter{MinTime: qT0.Add(time.Hour), MaxTime: qT0}}, "min_time"},
		{Query{Select: SelectObservations, Aggs: []string{AggObservations}}, "aggs"},
		{Query{Select: SelectObservations, GroupBy: GroupBy{Key: ByISP}}, "group_by"},
		{Query{Select: SelectObservations, OrderBy: OrderBy{Field: "key"}}, "order_by"},
		{Query{Cursor: "not-a-cursor!"}, "cursor"},
	}
	for i, tc := range bad {
		err := tc.q.Validate()
		if err == nil {
			t.Errorf("bad[%d] accepted", i)
			continue
		}
		qe, okType := err.(*Error)
		if !okType {
			t.Errorf("bad[%d]: error %T is not *query.Error", i, err)
			continue
		}
		if !strings.Contains(qe.Message, tc.want) {
			t.Errorf("bad[%d]: message %q does not mention %q", i, qe.Message, tc.want)
		}
	}
}

func TestDecodeRejectsUnknownFieldsAndTrailing(t *testing.T) {
	if _, err := Decode([]byte(`{"group_by":{"key":"isp"},"n":10}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Decode([]byte(`{"limit":5} {"limit":6}`)); err == nil {
		t.Fatal("trailing object accepted")
	}
	if _, err := Decode([]byte(`{"limit":5}xyz`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := Decode([]byte(`[1,2]`)); err == nil {
		t.Fatal("non-object accepted")
	}
	q, err := Decode([]byte(`{"filter":{"min_time":"2010-04-06T00:00:00Z","seeders_only":true},"group_by":{"key":"time-bucket","bucket":"6h"},"aggs":["seeders"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy.Bucket != Duration(6*time.Hour) || !q.Filter.SeedersOnly {
		t.Fatalf("decoded query = %+v", q)
	}
}

func TestCursorRejectsForeignQuery(t *testing.T) {
	a := Query{Select: SelectGroups, GroupBy: GroupBy{Key: ByTorrent}, Aggs: []string{AggObservations}, Limit: 2}
	cur := encodeCursor(2, a.sig())
	a.Cursor = cur
	if err := a.Validate(); err != nil {
		t.Fatalf("own cursor rejected: %v", err)
	}
	// A query that only spells out the default aggs explicitly is the
	// same query: its cursor must stay valid.
	implicit := Query{GroupBy: GroupBy{Key: ByTorrent}, Limit: 2, Cursor: cur}
	if err := implicit.Validate(); err != nil {
		t.Fatalf("cursor rejected after default-agg normalization: %v", err)
	}
	b := Query{Select: SelectGroups, GroupBy: GroupBy{Key: ByPublisher}, Aggs: []string{AggObservations}, Limit: 2, Cursor: cur}
	err := b.Validate()
	if err == nil {
		t.Fatal("foreign cursor accepted")
	}
	if qe := err.(*Error); qe.Code != "bad_cursor" {
		t.Fatalf("code = %q, want bad_cursor", qe.Code)
	}
}

func TestDurationJSON(t *testing.T) {
	var gb GroupBy
	if err := json.Unmarshal([]byte(`{"key":"time-bucket","bucket":3600000000000}`), &gb); err != nil {
		t.Fatal(err)
	}
	if gb.Bucket != Duration(time.Hour) {
		t.Fatalf("numeric bucket = %v", gb.Bucket)
	}
	out, err := json.Marshal(GroupBy{Key: ByTimeBucket, Bucket: Duration(90 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"1h30m0s"`) {
		t.Fatalf("marshaled bucket = %s", out)
	}
}

// smallDataset is a hand-built fixture with a known answer sheet.
func smallDataset() *dataset.Dataset {
	ds := &dataset.Dataset{Name: "small", Start: qT0, End: qT0.Add(24 * time.Hour)}
	ds.AddTorrent(&dataset.TorrentRecord{TorrentID: 0, InfoHash: "00", Username: "alice", Category: "Video > Movies", Published: qT0})
	ds.AddTorrent(&dataset.TorrentRecord{TorrentID: 1, InfoHash: "01", Username: "alice", Category: "Audio > Music", Published: qT0})
	ds.AddTorrent(&dataset.TorrentRecord{TorrentID: 2, InfoHash: "02", Username: "bob", Category: "Video > TV Shows", Published: qT0})
	ds.AddTorrent(&dataset.TorrentRecord{TorrentID: 3, InfoHash: "03", PublisherIP: "9.9.9.9", Published: qT0})
	// t0: alice's movie, 3 distinct IPs, one a seeder, spread over 2h.
	ds.AddObservation(dataset.Observation{TorrentID: 0, IP: "1.1.1.1", At: qT0, Seeder: true})
	ds.AddObservation(dataset.Observation{TorrentID: 0, IP: "1.1.1.2", At: qT0.Add(time.Hour)})
	ds.AddObservation(dataset.Observation{TorrentID: 0, IP: "1.1.1.3", At: qT0.Add(2 * time.Hour)})
	// t1: alice's album, 1 IP seen twice.
	ds.AddObservation(dataset.Observation{TorrentID: 1, IP: "1.1.1.1", At: qT0.Add(3 * time.Hour)})
	ds.AddObservation(dataset.Observation{TorrentID: 1, IP: "1.1.1.1", At: qT0.Add(4 * time.Hour)})
	// t2: bob's show, 2 IPs.
	ds.AddObservation(dataset.Observation{TorrentID: 2, IP: "2.2.2.2", At: qT0.Add(5 * time.Hour), Seeder: true})
	ds.AddObservation(dataset.Observation{TorrentID: 2, IP: "2.2.2.3", At: qT0.Add(6 * time.Hour)})
	// t3: the ip-identified publisher's upload.
	ds.AddObservation(dataset.Observation{TorrentID: 3, IP: "3.3.3.3", At: qT0.Add(7 * time.Hour)})
	return ds
}

func execSmall(t *testing.T, q Query) *Result {
	t.Helper()
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(smallDataset(), db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mem.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGroupByPublisher(t *testing.T) {
	res := execSmall(t, Query{
		GroupBy: GroupBy{Key: ByPublisher},
		Aggs:    []string{AggObservations, AggDistinctIPs, AggTorrents, AggSeeders, AggMaxSwarm},
		OrderBy: OrderBy{Field: AggObservations, Desc: true},
	})
	if res.Total != 3 || len(res.Groups) != 3 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	alice := res.Groups[0]
	if alice.Key != "alice" {
		t.Fatalf("top group = %+v", alice)
	}
	want := map[string]int64{
		AggObservations: 5, AggDistinctIPs: 3, AggTorrents: 2, AggSeeders: 1, AggMaxSwarm: 3,
	}
	for k, v := range want {
		if alice.Aggs[k] != v {
			t.Errorf("alice %s = %d, want %d", k, alice.Aggs[k], v)
		}
	}
	if res.Groups[2].Key != "ip:9.9.9.9" {
		t.Fatalf("ip-identified publisher key = %q", res.Groups[2].Key)
	}
}

func TestPublisherFilterAndSeedersOnly(t *testing.T) {
	res := execSmall(t, Query{
		Filter:  Filter{Publishers: []string{"alice"}},
		GroupBy: GroupBy{Key: ByContentType},
		Aggs:    []string{AggObservations},
	})
	if res.Total != 2 {
		t.Fatalf("content types = %+v", res.Groups)
	}
	if res.Groups[0].Key != "Audio" || res.Groups[0].Aggs[AggObservations] != 2 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	if res.Groups[1].Key != "Video" || res.Groups[1].Aggs[AggObservations] != 3 {
		t.Fatalf("groups = %+v", res.Groups)
	}

	res = execSmall(t, Query{Filter: Filter{SeedersOnly: true}})
	if res.Total != 1 || res.Groups[0].Key != "" || res.Groups[0].Aggs[AggObservations] != 2 {
		t.Fatalf("seeders-only total row = %+v", res.Groups)
	}
}

func TestTimeBucketAndWindow(t *testing.T) {
	res := execSmall(t, Query{
		Filter:  Filter{MinTime: qT0.Add(time.Hour), MaxTime: qT0.Add(5 * time.Hour)},
		GroupBy: GroupBy{Key: ByTimeBucket, Bucket: Duration(2 * time.Hour)},
		Aggs:    []string{AggObservations},
	})
	// Window keeps hours 1..5 inclusive: buckets 0h (hour 1), 2h (hours
	// 2,3), 4h (hours 4,5).
	if res.Total != 3 {
		t.Fatalf("buckets = %+v", res.Groups)
	}
	if res.Groups[0].Key != qT0.Format(time.RFC3339Nano) || res.Groups[0].Aggs[AggObservations] != 1 {
		t.Fatalf("first bucket = %+v", res.Groups[0])
	}
	if res.Groups[1].Aggs[AggObservations] != 2 || res.Groups[2].Aggs[AggObservations] != 2 {
		t.Fatalf("buckets = %+v", res.Groups)
	}
}

func TestObservationsSelect(t *testing.T) {
	res := execSmall(t, Query{
		Select: SelectObservations,
		Filter: Filter{TorrentIDs: []int{0}},
	})
	if res.Total != 3 || len(res.Observations) != 3 {
		t.Fatalf("observations = %+v", res.Observations)
	}
	if res.Observations[0].IP != "1.1.1.1" || !res.Observations[0].Seeder {
		t.Fatalf("first observation = %+v", res.Observations[0])
	}
	for i := 1; i < len(res.Observations); i++ {
		if res.Observations[i].At.Before(res.Observations[i-1].At) {
			t.Fatal("observations not time-ordered")
		}
	}
}

func TestCursorPaginationRoundTrip(t *testing.T) {
	full := execSmall(t, Query{GroupBy: GroupBy{Key: ByTorrent}, Aggs: []string{AggDistinctIPs}})
	if full.Total != 4 || full.NextCursor != "" {
		t.Fatalf("full = %+v", full)
	}
	var walked []GroupRow
	q := Query{GroupBy: GroupBy{Key: ByTorrent}, Aggs: []string{AggDistinctIPs}, Limit: 3}
	for page := 0; ; page++ {
		res := execSmall(t, q)
		if res.Total != 4 {
			t.Fatalf("page %d total = %d", page, res.Total)
		}
		walked = append(walked, res.Groups...)
		if res.NextCursor == "" {
			break
		}
		q.Cursor = res.NextCursor
		if page > 4 {
			t.Fatal("cursor walk did not terminate")
		}
	}
	a, _ := json.Marshal(full.Groups)
	b, _ := json.Marshal(walked)
	if string(a) != string(b) {
		t.Fatalf("walked pages != full result:\n%s\n%s", a, b)
	}
}

// TestTorrentIDsPastDenseMemo covers torrent IDs the collector memoizes
// through its map rather than its ID-indexed slice.
func TestTorrentIDsPastDenseMemo(t *testing.T) {
	ds := &dataset.Dataset{Name: "big-ids", Start: qT0, End: qT0.Add(time.Hour)}
	tids := []int{3, denseTIDs, 1<<31 - 1, denseTIDs, 3, 1<<31 - 1, 1<<31 - 1}
	for i, tid := range tids {
		ds.AddObservation(dataset.Observation{TorrentID: tid, IP: fmt.Sprintf("1.1.1.%d", i%3), At: qT0.Add(time.Duration(i) * time.Minute)})
	}
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(ds, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mem.Execute(context.Background(), Query{
		GroupBy: GroupBy{Key: ByTorrent},
		Aggs:    []string{AggObservations, AggDistinctIPs, AggTorrents},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][3]int64{}
	for _, g := range res.Groups {
		got[g.Key] = [3]int64{g.Aggs[AggObservations], g.Aggs[AggDistinctIPs], g.Aggs[AggTorrents]}
	}
	want := map[string][3]int64{
		"3":                   {2, 2, 1}, // rows 0, 4: 1.1.1.0, 1.1.1.1
		fmt.Sprint(denseTIDs): {2, 2, 1}, // rows 1, 3: 1.1.1.1, 1.1.1.0
		fmt.Sprint(1<<31 - 1): {3, 2, 1}, // rows 2, 5, 6: 1.1.1.2, 1.1.1.2, 1.1.1.0
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}
