package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"btpub/internal/alert"
	"btpub/internal/classify"
	"btpub/internal/dataset"
	"btpub/internal/delta"
	"btpub/internal/lake"
	"btpub/internal/population"
)

// The live workload's pacing: the writer commits one slice per
// sliceEvery, the reader sends one request per readEvery.
const (
	sliceEvery = 100 * time.Millisecond
	readEvery  = 2 * time.Millisecond
	// serveDeadline is how long a committed version may take to be served
	// before it counts as failed.
	serveDeadline = 5 * time.Second
)

// dashPaths is the reader's rotation of snapshot endpoints.
var dashPaths = []string{"/tables/2", "/top-publishers", "/publishers/classified", "/fakes", "/alerts"}

// checkPaths are the snapshot bodies that must not depend on whether the
// snapshot was folded incrementally or built from scratch. The alert
// feed is left out: its lifecycle versions record refresh history.
var checkPaths = []string{"/tables/2", "/top-publishers", "/publishers/classified", "/fakes"}

// commitSlice buffers one slice in the lake; the caller's Flush then
// commits it as one version, timed on its own.
func commitSlice(lk *lake.Lake, sl *slice) error {
	if len(sl.recs) > 0 {
		if err := lk.AddTorrents(sl.recs); err != nil {
			return err
		}
	}
	for _, o := range sl.obs {
		if err := lk.Append(o); err != nil {
			return err
		}
	}
	if len(sl.users) > 0 {
		if err := lk.AddUsers(sl.users); err != nil {
			return err
		}
	}
	return nil
}

// openHalf opens a fresh lake in dir holding the first half. Unlike
// btpub-serve -live, the lake does not compact on its own: a compaction
// retires segments and makes the next refresh a full rebuild, and the
// workload measures the incremental path (0 full rebuilds after set-up).
func openHalf(dir string, base *dataset.Dataset) (*lake.Lake, error) {
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		return nil, err
	}
	if err := lk.ImportDataset(base); err != nil {
		lk.Close()
		return nil, err
	}
	return lk, nil
}

// runLive is the live workload: an open-loop writer commits the second
// half of the input in small flushes while one reader polls the snapshot
// endpoints, and each commit is timed until the server serves it.
func runLive(b *bench) error {
	ds, err := genInput(b)
	if err != nil {
		return err
	}
	nSlices := int(b.seconds / sliceEvery)
	base, slices := liveInput(ds, nSlices, b.seed)

	var imports []float64
	setup := func(n int) (*server, error) {
		t0 := time.Now()
		lk, err := openHalf(b.tmpDir(fmt.Sprintf("lake-%d", n)), base)
		if err != nil {
			return nil, err
		}
		imports = append(imports, ms(time.Since(t0)))
		s := serve(b, lk)
		if code, _, _, err := s.get("/tables/2"); err != nil || code != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("first snapshot: status %d: %v", code, err)
		}
		return s, nil
	}
	s, err := timeSetups(b, setup, (*server).close)
	if err != nil {
		return err
	}
	defer s.close()

	lr, err := liveLoop(b, s, slices)
	if err != nil {
		return err
	}
	fresh, missing := freshness(lr.commits, lr.seen)
	var freshMs []float64
	for _, f := range fresh {
		if f > serveDeadline {
			missing++
			continue
		}
		freshMs = append(freshMs, ms(f))
	}
	b.attempted += int64(len(slices))
	missing += len(slices) - len(lr.commits)
	if missing > 0 {
		b.wrong(int64(missing), "live", fmt.Sprintf("%d of %d slices not committed and served within %s", missing, len(slices), serveDeadline))
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"fresh", freshMs}, {"dash", lr.dash}} {
		p90, err := tail(m.name, m.xs, 90)
		if err != nil {
			return err
		}
		b.meta[m.name+"_p90_ms"] = p90
	}
	b.metric("slow_p50_ms", median(freshMs), "ms")
	b.metric("fast_p50_ms", median(lr.dash), "ms")
	b.metric("ops_per_s", float64(len(lr.dash))/lr.readWall.Seconds(), "1/s")
	st := s.lk.Stats()
	b.metric("disk_bytes_per_obs", float64(st.TotalBytes)/float64(st.Observations), "B")
	b.metric("retained_mb", retainedMB(s), "MB")
	lateP90 := percentile(lr.genLate, 90)
	b.metric("live.gen_late_p90_ms", lateP90, "ms")
	b.metric("live.backlog_versions", float64(backlog(lr.commits, lr.seen)), "count")
	b.metric("lakeserve.rejected", float64(lr.rejected), "count")
	b.metric("lakeserve.timeouts", float64(lr.timeouts), "count")
	b.meta["gen_late_p90_ms"] = lateP90
	b.meta["read_late_max_ms"] = ms(lr.readLateMax)

	// The snapshot the live server folded slice by slice must serve what a
	// server built from scratch over the same lake serves.
	full := serve(b, s.lk)
	defer full.http.Close()
	defer full.srv.Close()
	for _, p := range checkPaths {
		codeL, bodyL, vL, errL := s.get(p)
		codeF, bodyF, vF, errF := full.get(p)
		if err := errors.Join(errL, errF); err != nil {
			return err
		}
		if codeL != http.StatusOK || codeF != http.StatusOK || vL != vF || !bytes.Equal(bodyL, bodyF) {
			b.wrong(1, "live delta==full check", fmt.Sprintf("%s: delta v%d status %d, full v%d status %d, bodies equal=%v",
				p, vL, codeL, vF, codeF, bytes.Equal(bodyL, bodyF)))
		}
	}

	again, err := timeSetups(b, setup, (*server).close)
	if err != nil {
		return err
	}
	again.close()
	b.metric("setup_s", median(b.setups), "s")
	b.metric("lake.import_ms", median(imports), "ms")

	if b.trace {
		if err := traceLive(b, base, slices, median(freshMs)); err != nil {
			return err
		}
		return traceCampaign(b)
	}
	return nil
}

// liveRun is what the live loop observed.
type liveRun struct {
	commits []commit
	seen    []served  // served-version transitions
	dash    []float64 // reader latency (ms), from each request's due time
	genLate []float64 // writer lateness (ms)

	readLateMax        time.Duration
	rejected, timeouts int

	// How long the reader ran, from the first read's due time.
	readWall time.Duration
}

// liveLoop runs the writer and the reader until every slice is committed
// and served, or the serve deadline passes after the last commit.
func liveLoop(b *bench, s *server, slices []slice) (*liveRun, error) {
	start := time.Now().Add(10 * time.Millisecond)
	lr := &liveRun{}
	var (
		mu       sync.Mutex // guards commits and writeErr
		commits  []commit
		writeErr error
	)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		p := newPacer(start, sliceEvery)
		for k := range slices {
			due, late := p.wait(k)
			lr.genLate = append(lr.genLate, ms(late))
			err := commitSlice(s.lk, &slices[k])
			if err == nil {
				err = s.lk.Flush()
			}
			c := commit{version: s.lk.Version(), due: due, done: time.Now()}
			mu.Lock()
			if err != nil {
				writeErr = err
			} else {
				commits = append(commits, c)
			}
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()

	var lastV uint64
	var giveUp time.Time
	p := newPacer(start, readEvery)
	for k := 0; ; k++ {
		due, late := p.wait(k)
		lr.readLateMax = max(lr.readLateMax, late)
		path := dashPaths[k%len(dashPaths)]
		b.attempted++
		code, body, v, err := s.get(path)
		done := time.Now()
		switch {
		case err != nil:
			b.wrong(1, "live read", err.Error())
		case code == http.StatusTooManyRequests:
			lr.rejected++
			b.failed++
		case code == http.StatusServiceUnavailable:
			lr.timeouts++
			b.failed++
		case code != http.StatusOK || len(body) == 0:
			b.wrong(1, "live read", fmt.Sprintf("%s: status %d", path, code))
		default:
			lr.dash = append(lr.dash, ms(done.Sub(due)))
			if v > lastV {
				lr.seen = append(lr.seen, served{version: v, at: done})
				lastV = v
			}
		}
		select {
		case <-writerDone:
			if giveUp.IsZero() {
				giveUp = done.Add(serveDeadline)
			}
			// The writer has exited: commits and writeErr are final.
			n := len(commits)
			if (n == len(slices) && lastV >= commits[n-1].version) || done.After(giveUp) {
				lr.commits = commits
				lr.readWall = done.Sub(start)
				return lr, writeErr
			}
		default:
		}
	}
}

// vanished stands in for a site inspector, as lakeserve does when it has
// none: every promoted site is treated as gone.
type vanished struct{}

func (vanished) Inspect(string) (population.BusinessType, string, error) {
	return population.BusinessNone, "", errors.New("no site inspector")
}

// refreshChain is the public sequence behind one served refresh:
// Maintainer.Refresh, the classify chain, then alert evaluation.
type refreshChain struct {
	m   *delta.Maintainer
	eng *alert.Engine
}

func newRefreshChain(b *bench, lk *lake.Lake) *refreshChain {
	return &refreshChain{m: delta.NewMaintainer(lk, b.db, 0), eng: alert.NewEngine()}
}

// run performs one refresh, recording spans under parent when traced.
func (c *refreshChain) run(b *bench, tr *Tracer, parent int32, op int64) error {
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	id := tr.Begin("delta.Maintainer.Refresh", parent, op)
	snap, err := c.m.Refresh(b.ctx)
	if err != nil {
		return err
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		full := int64(0)
		if snap.Mode == delta.ModeFull {
			full = 1
		}
		tr.End(id, map[string]int64{"alloc_bytes": int64(m1.TotalAlloc - m0.TotalAlloc), "delta_obs": snap.DeltaObs, "full": full})
	}

	id = tr.Begin("classify", parent, op)
	an := snap.An
	clusters := an.Facts.AliasClusters()
	merged := an.Facts.MergeAliasClusters(clusters)
	groups := merged.BuildGroups(0, 0)
	if _, err := classify.ClassifyBusiness(merged, groups, an.ByID, vanished{}); err != nil {
		return err
	}
	tr.End(id, map[string]int64{"identities": int64(len(an.Facts.Users))})

	id = tr.Begin("alert.Engine.Evaluate", parent, op)
	changed := c.eng.Evaluate(snap)
	scored := int64(len(snap.Changed))
	if snap.ChangedAll {
		scored = int64(len(an.Facts.Users))
	}
	tr.End(id, map[string]int64{"scored": scored, "changed": int64(len(changed))})
	return nil
}

// firing counts the alerts firing now.
func (c *refreshChain) firing() int {
	n := 0
	for _, a := range c.eng.Since(0).Alerts {
		if a.State == alert.StateFiring {
			n++
		}
	}
	return n
}

// liveReplay replays the live sequence without pacing on a fresh lake:
// import the first half, build the first snapshot, then per slice commit
// and refresh. It returns the wall time of the slice loop.
func liveReplay(b *bench, dir string, base *dataset.Dataset, slices []slice, tr *Tracer) (time.Duration, error) {
	runtime.GC()
	lk, err := openHalf(dir, base)
	if err != nil {
		return 0, err
	}
	defer lk.Close()
	c := newRefreshChain(b, lk)
	setup := tr.Begin("live.setup", 0, 0)
	if err := c.run(b, tr, setup, 0); err != nil {
		return 0, err
	}
	tr.End(setup, nil)
	t0 := time.Now()
	for k := range slices {
		op := int64(k + 1)
		root := tr.Begin("live.slice", 0, op)
		if err := commitSlice(lk, &slices[k]); err != nil {
			return 0, err
		}
		id := tr.Begin("lake.Flush", root, op)
		if err := lk.Flush(); err != nil {
			return 0, err
		}
		tr.End(id, nil)
		if err := c.run(b, tr, root, op); err != nil {
			return 0, err
		}
		tr.End(root, nil)
	}
	wall := time.Since(t0)
	if tr != nil {
		st := lk.Stats()
		id := tr.Begin("live.end", 0, int64(len(slices)+1))
		tr.End(id, map[string]int64{"segments": int64(st.Segments), "bytes": st.TotalBytes, "firing": int64(c.firing())})
	}
	return wall, nil
}

// traceLive replays the live sequence once untraced and twice traced,
// and derives the per-layer metrics; freshP50 is the untraced run's.
func traceLive(b *bench, base *dataset.Dataset, slices []slice, freshP50 float64) error {
	var walls []time.Duration
	var passes []map[string]metric
	var spans []Span
	for pass := 0; pass < 3; pass++ {
		var tr *Tracer
		if pass > 0 {
			tr = newTracer()
		}
		wall, err := liveReplay(b, b.tmpDir(fmt.Sprintf("replay-%d", pass)), base, slices, tr)
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		if tr == nil {
			continue
		}
		sp := tr.Spans()
		passes = append(passes, liveExact(sp))
		if spans == nil {
			spans = sp
			b.writeTrace(tr)
		}
	}
	b.exactCounts(passes[0], passes[1])

	self := selfTimes(spans)
	var refresh, classifyMs, evaluate, flush []float64
	var full float64
	var alloc int64
	for _, s := range spans {
		d := ms(self[s.ID])
		inSlice := s.Op > 0
		switch {
		case s.Name == "delta.Maintainer.Refresh" && !inSlice:
			full = d
		case s.Name == "delta.Maintainer.Refresh":
			refresh = append(refresh, d)
			alloc += s.Counts["alloc_bytes"]
		case s.Name == "classify" && inSlice:
			classifyMs = append(classifyMs, d)
		case s.Name == "alert.Engine.Evaluate" && inSlice:
			evaluate = append(evaluate, d)
		case s.Name == "lake.Flush":
			flush = append(flush, d)
		}
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"lake.flush", flush}, {"delta.refresh", refresh}} {
		p90, err := tail(m.name, m.xs, 90)
		if err != nil {
			return err
		}
		b.metric(m.name+"_p50_ms", median(m.xs), "ms")
		b.metric(m.name+"_p90_ms", p90, "ms")
	}
	b.metric("delta.full_build_ms", full, "ms")
	b.metric("delta.alloc_mb_per_refresh", float64(alloc)/float64(len(refresh))/1e6, "MB")
	b.metric("classify.ms", median(classifyMs), "ms")
	b.metric("alert.evaluate_ms", median(evaluate), "ms")
	b.metric("lakeserve.refresh_residual_ms", freshP50-median(refresh)-median(classifyMs)-median(evaluate), "ms")
	b.metric("trace.overhead_ratio", float64(walls[1]+walls[2])/2/float64(walls[0]), "ratio")
	return nil
}

// liveExact extracts the counts that must repeat exactly.
func liveExact(spans []Span) map[string]metric {
	var deltaObs, fullRebuilds, identities, scored, changed, refreshes int64
	out := map[string]metric{}
	for _, s := range spans {
		switch {
		case s.Name == "delta.Maintainer.Refresh" && s.Op > 0:
			refreshes++
			deltaObs += s.Counts["delta_obs"]
			fullRebuilds += s.Counts["full"]
		case s.Name == "classify" && s.Op > 0:
			identities += s.Counts["identities"]
		case s.Name == "alert.Engine.Evaluate" && s.Op > 0:
			scored += s.Counts["scored"]
			changed += s.Counts["changed"]
		case s.Name == "live.end":
			out["lake.segments"] = metric{float64(s.Counts["segments"]), "count"}
			out["lake.bytes"] = metric{float64(s.Counts["bytes"]), "B"}
			out["alert.firing"] = metric{float64(s.Counts["firing"]), "count"}
		}
	}
	out["delta.delta_obs"] = metric{float64(deltaObs), "count"}
	out["delta.full_rebuilds"] = metric{float64(fullRebuilds), "count"}
	out["classify.identities"] = metric{float64(identities) / float64(refreshes), "count"}
	out["alert.scored"] = metric{float64(scored), "count"}
	out["alert.changed"] = metric{float64(changed), "count"}
	return out
}
