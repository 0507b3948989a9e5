package main

import (
	"testing"
	"time"
)

// fakeClock is a clock the test advances by hand; sleeping advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerOpenLoopLateness(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := &pacer{start: clk.t, every: 10 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	// Each op takes 2 ms except op 1, which stalls for 35 ms. The ops due
	// during the stall are sent late, and their latency — timed from the
	// due time — carries the wait.
	service := []time.Duration{2, 35, 2, 2, 2, 2, 2}
	var late, lat []time.Duration
	for k, s := range service {
		due, l := p.wait(k)
		clk.advance(s * time.Millisecond)
		late = append(late, l)
		lat = append(lat, clk.now().Sub(due))
	}
	ms := time.Millisecond
	wantLate := []time.Duration{0, 0, 25 * ms, 17 * ms, 9 * ms, 1 * ms, 0}
	wantLat := []time.Duration{2 * ms, 35 * ms, 27 * ms, 19 * ms, 11 * ms, 3 * ms, 2 * ms}
	for k := range service {
		if late[k] != wantLate[k] || lat[k] != wantLat[k] {
			t.Errorf("op %d: late %v latency %v, want %v %v", k, late[k], lat[k], wantLate[k], wantLat[k])
		}
	}
	// An on-time generator never sends early.
	if due, _ := p.wait(100); clk.now().Before(due) {
		t.Errorf("sent at %v, before due %v", clk.now(), due)
	}
}

func TestFreshnessMatchesServedVersions(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	commits := []commit{
		{version: 5, due: at(0), done: at(3)},
		{version: 6, due: at(100), done: at(104)},
		{version: 7, due: at(200), done: at(203)},
		{version: 8, due: at(300), done: at(302)},
	}
	// Version 6 is never served on its own: the snapshot jumps from 5 to
	// 7, which serves both. Version 8 is never served.
	seen := []served{
		{version: 4, at: at(1)},
		{version: 5, at: at(30)},
		{version: 7, at: at(260)},
	}
	fresh, missing := freshness(commits, seen)
	want := []time.Duration{30 * time.Millisecond, 160 * time.Millisecond, 60 * time.Millisecond}
	if missing != 1 || len(fresh) != len(want) {
		t.Fatalf("fresh %v missing %d, want %v missing 1", fresh, missing, want)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Errorf("commit %d fresh %v, want %v", i, fresh[i], want[i])
		}
	}
	// At v8's commit (302 ms) the server still serves v7: one behind.
	// At v7's commit (203 ms) it serves v5: v6 and v7 are behind.
	if b := backlog(commits, seen); b != 2 {
		t.Errorf("backlog = %d, want 2", b)
	}
}
