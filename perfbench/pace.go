package main

import "time"

// pacer schedules an open loop: op k is due at start + k*every whatever
// happened to earlier ops. A generator that falls behind sends at once
// and reports how late it was, so latency timed from the due time counts
// the wait a stall imposes on the ops queued behind it.
type pacer struct {
	start time.Time
	every time.Duration
	now   func() time.Time
	sleep func(time.Duration)
}

func newPacer(start time.Time, every time.Duration) *pacer {
	return &pacer{start: start, every: every, now: time.Now, sleep: time.Sleep}
}

func (p *pacer) due(k int) time.Time { return p.start.Add(time.Duration(k) * p.every) }

// wait blocks until op k is due and returns its due time and how late
// the generator is to send it (0 when on time).
func (p *pacer) wait(k int) (due time.Time, late time.Duration) {
	due = p.due(k)
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	if late = p.now().Sub(due); late < 0 {
		late = 0
	}
	return due, late
}

// commit is one slice the live writer committed: the lake version it
// produced, when it was due and when Flush returned.
type commit struct {
	version uint64
	due     time.Time
	done    time.Time
}

// served is a reader response that showed a new snapshot version: the
// version and when the response arrived. Versions only increase.
type served struct {
	version uint64
	at      time.Time
}

// freshness matches each commit to the first response serving its
// version or a later one, and returns the time from the commit's due
// time to that response. Commits never served are counted in missing;
// both inputs are in time order.
func freshness(commits []commit, seen []served) (fresh []time.Duration, missing int) {
	j := 0
	for _, c := range commits {
		for j < len(seen) && seen[j].version < c.version {
			j++
		}
		if j == len(seen) {
			missing++
			continue
		}
		fresh = append(fresh, seen[j].at.Sub(c.due))
	}
	return fresh, missing
}

// backlog is the largest number of committed versions the server was
// behind on: at each commit, the commits so far minus those already
// served.
func backlog(commits []commit, seen []served) int {
	worst, j := 0, 0
	var cur uint64 // latest version served before the commit returned
	for k, c := range commits {
		for j < len(seen) && !seen[j].at.After(c.done) {
			cur = seen[j].version
			j++
		}
		behind := 0
		for _, p := range commits[:k+1] {
			if p.version > cur {
				behind++
			}
		}
		worst = max(worst, behind)
	}
	return worst
}
