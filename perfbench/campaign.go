package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"btpub/internal/campaign"
	"btpub/internal/population"
)

// crawlScale is the size of the world the workloads' input campaign
// simulates and crawls.
const crawlScale = 0.02

// campaignSpec is the sharded run btpub-crawl -shards nproc makes.
func campaignSpec(scale float64, seed uint64) campaign.Spec {
	return campaign.Spec{
		Scale: scale, Seed: seed,
		Shards: runtime.NumCPU(), Workers: 1,
		Scenarios: population.AllScenarios,
	}
}

// checkCrawl counts the campaign as a failed op unless the crawler saw
// every torrent that reached the portal.
func checkCrawl(b *bench, res *campaign.Result) {
	if seen, world := res.Stats().TorrentsSeen, published(res.World); seen != world {
		b.wrong(1, "input campaign", fmt.Sprintf("crawler saw %d of the world's %d published torrents", seen, world))
	}
}

// published counts the world's torrents that reach the portal: uploads
// scheduled after their publisher's account purge bounce off the
// suspended account (the account-purge scenario), so no crawler can see
// them.
func published(w *population.World) int {
	n := 0
	for _, t := range w.Torrents {
		purge := w.Publishers[t.PublisherID].PurgeAt
		if purge.IsZero() || t.Published.Before(purge) {
			n++
		}
	}
	return n
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traceCampaign runs the workload's input campaign twice more, traced:
// population.Generate on its own (the campaign calls it internally),
// then campaign.Run with the process CPU and allocation across it and
// the crawler's counts at its end. It derives the simulation, crawler
// and dataset metrics from the first pass; the exact counts of the two
// passes must match.
func traceCampaign(b *bench) error {
	spec := campaignSpec(crawlScale, dataSeed)
	var passes []map[string]metric
	var spans []Span
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		tr := newTracer()
		params := population.DefaultParams(spec.Scale)
		params.Seed, params.Scenarios = spec.Seed, spec.Scenarios
		id := tr.Begin("population.Generate", 0, 1)
		if _, err := population.Generate(params, b.db); err != nil {
			return err
		}
		tr.End(id, nil)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := processCPU()
		id = tr.Begin("campaign.Run", 0, 1)
		res, err := campaign.Run(spec)
		if err != nil {
			return fmt.Errorf("traced campaign: %w", err)
		}
		cpu := processCPU() - cpu0
		runtime.ReadMemStats(&ms1)
		st := res.Stats()
		tr.End(id, map[string]int64{
			"cpu_ns":          int64(cpu),
			"alloc_bytes":     int64(ms1.TotalAlloc - ms0.TotalAlloc),
			"tracker_queries": int64(st.TrackerQueries),
			"rate_limited":    int64(st.RateLimited),
			"rss_polls":       int64(st.RSSPolls),
			"wire_probes":     int64(st.WireProbes),
			"observations":    int64(res.Dataset.Obs.Len()),
			"torrents":        int64(len(res.Dataset.Torrents)),
		})
		checkCrawl(b, res)
		sp := tr.Spans()
		passes = append(passes, campaignExact(sp))
		if pass == 0 {
			spans = sp
		}
	}
	b.exactCounts(passes[0], passes[1])

	self := selfTimes(spans)
	b.metric("population.generate_ms", median(selfMs(spans, self, "population.Generate")), "ms")
	run := selfMs(spans, self, "campaign.Run")
	b.metric("campaign.run_ms", median(run), "ms")
	b.metric("campaign.cpu_per_wall", float64(sumCount(spans, "campaign.Run", "cpu_ns"))/1e6/sum(run), "ratio")
	b.metric("campaign.alloc_mb", float64(sumCount(spans, "campaign.Run", "alloc_bytes"))/1e6, "MB")
	b.metric("crawler.announce_useful_ratio", 1-passes[0]["crawler.rate_limited"].Value/passes[0]["crawler.tracker_queries"].Value, "ratio")
	return nil
}

// campaignExact extracts the counts that must repeat exactly at one
// seed.
func campaignExact(spans []Span) map[string]metric {
	c := func(count string) metric {
		return metric{float64(sumCount(spans, "campaign.Run", count)), "count"}
	}
	return map[string]metric{
		"crawler.tracker_queries": c("tracker_queries"),
		"crawler.rate_limited":    c("rate_limited"),
		"crawler.rss_polls":       c("rss_polls"),
		"crawler.wire_probes":     c("wire_probes"),
		"dataset.observations":    c("observations"),
		"dataset.torrents":        c("torrents"),
	}
}
