package main

import (
	"logscape/internal/logmodel"
)

// pacing maps stream time onto the wall clock of an open-loop run: stream
// time is compressed so that one bucket of Width passes every BucketWall
// nanoseconds, and lines are appended in ticks of Tick nanoseconds.
type pacing struct {
	Start      logmodel.Millis // stream time of the run's first instant
	Width      logmodel.Millis // bucket width
	BucketWall int64           // wall nanoseconds per bucket
	Tick       int64           // wall nanoseconds per append tick
	Offset     int64           // this tenant's stagger, wall nanoseconds
}

// dueTick returns the tick at which a line stamped t is due: its compressed
// stream time, rounded up to the next tick boundary.
func (p pacing) dueTick(t logmodel.Millis) int {
	due := p.Offset + int64(t-p.Start)*p.BucketWall/int64(p.Width)
	return int((due + p.Tick - 1) / p.Tick)
}

// closing is the moment a bucket becomes closable: the line that closes it —
// the first line stamped at or beyond its end — is due.
type closing struct {
	Due int64           // wall nanoseconds from the run's start
	End logmodel.Millis // the closed bucket's end, stream time
}

// plan is one tenant's open-loop schedule, a pure function of its entries
// and the pacing.
type plan struct {
	Ticks   [][]byte  // Ticks[i] is appended to the tenant's file at tick i; nil when nothing is due
	Entries int       // lines scheduled
	Buckets int       // non-empty buckets the lines fall into
	Closes  []closing // one per bucket but the last, which only the drain closes
}

// planTenant schedules time-ordered entries on the pacing's wall clock.
func planTenant(entries []logmodel.Entry, p pacing) plan {
	var pl plan
	cur := int64(-1)
	for _, e := range entries {
		tick := p.dueTick(e.Time)
		for len(pl.Ticks) <= tick {
			pl.Ticks = append(pl.Ticks, nil)
		}
		if b := int64((e.Time - p.Start) / p.Width); b != cur {
			if cur >= 0 {
				pl.Closes = append(pl.Closes, closing{
					Due: int64(tick) * p.Tick,
					End: p.Start + logmodel.Millis(cur+1)*p.Width,
				})
			}
			cur = b
			pl.Buckets++
		}
		pl.Ticks[tick] = append(logmodel.AppendEntry(pl.Ticks[tick], e), '\n')
		pl.Entries++
	}
	return pl
}
