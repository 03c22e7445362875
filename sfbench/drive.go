package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// record is one decided read as a channel observed it.
type record struct {
	id   int // read sequence number within the run
	read int // index into the input pool
	// decision is the time from delivering the chunk that completed the
	// read's deciding prefix (or its end, for a read shorter than the
	// prefix) to the return of the call that decided it; wait is the
	// part of it before that call began.
	decision, wait time.Duration
	out            outcome
}

// phase is what the channels measured over one timed window.
type phase struct {
	records []record
	staging []time.Duration // calls that decided nothing
	opened  int
	wall    time.Duration
	cpu     time.Duration
	// deciding holds the duration of each call that decided a read (a
	// batch flush decides several).
	deciding []time.Duration
	// Heap bytes allocated and garbage collections over the phase.
	allocBytes uint64
	numGC      uint32
	// peakRSS is the largest resident set sampled during the phase, MiB.
	peakRSS float64
}

// lane is one read slot of a channel.
type lane struct {
	s     session
	id    int
	read  int
	off   int
	cross time.Time
	span  int
}

// runPhase drives nproc closed-loop channels for d: each channel keeps
// sys.lanes reads in flight, delivers their next chunks round-robin as
// fast as the classifier takes them, and starts a new read in a lane as
// soon as the lane's read is decided. When d is up no new read starts
// and every read in flight runs to its decision.
func runPhase(sys *system, pool [][]int16, d time.Duration, tr *tracer, nextID *atomic.Int64) (*phase, error) {
	nch := runtime.NumCPU()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	logs := make([]*phase, nch)
	errs := make([]error, nch)
	stop := make(chan struct{})
	rss := sampleRSS(stop)
	start := time.Now()
	cpu0 := cpuTime()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ch := 0; ch < nch; ch++ {
		logs[ch] = &phase{}
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			errs[ch] = channel(sys, pool, ch, deadline, tr, nextID, logs[ch])
		}(ch)
	}
	wg.Wait()
	out := &phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	close(stop)
	out.peakRSS = <-rss
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	out.numGC = after.NumGC - before.NumGC
	for ch, l := range logs {
		if errs[ch] != nil {
			return nil, errs[ch]
		}
		out.records = append(out.records, l.records...)
		out.staging = append(out.staging, l.staging...)
		out.opened += l.opened
		out.deciding = append(out.deciding, l.deciding...)
	}
	return out, nil
}

// channel is one sequencer channel's closed loop.
func channel(sys *system, pool [][]int16, ch int, deadline time.Time, tr *tracer,
	nextID *atomic.Int64, log *phase) error {
	lanes := make([]lane, sys.lanes)
	// call runs one public call on lane l, then collects every lane the
	// call decided.
	call := func(name string, l *lane, fn func()) {
		start := time.Now()
		fn()
		end := time.Now()
		tr.span(name, start, end, l.span, l.id)
		decided := 0
		for i := range lanes {
			o := &lanes[i]
			if o.s == nil || !o.s.decided() {
				continue
			}
			cross := o.cross
			if cross.IsZero() || cross.After(start) {
				cross = start
			}
			log.records = append(log.records, record{
				id: o.id, read: o.read, decision: end.Sub(cross), wait: start.Sub(cross),
				out: o.s.outcome(),
			})
			tr.end(o.span, end)
			o.s = nil
			decided++
		}
		if decided > 0 {
			log.deciding = append(log.deciding, end.Sub(start))
		} else {
			log.staging = append(log.staging, end.Sub(start))
		}
	}
	for {
		stopping := !time.Now().Before(deadline)
		active := 0
		for i := range lanes {
			l := &lanes[i]
			if l.s == nil {
				if stopping {
					continue
				}
				id := int(nextID.Add(1) - 1)
				*l = lane{id: id, read: id % len(pool)}
				start := time.Now()
				s, err := sys.open(ch)
				if err != nil {
					return fmt.Errorf("read %d: open: %w", id, err)
				}
				l.s = s
				l.span = tr.begin("read", start, id)
				tr.span("session.new", start, time.Now(), l.span, id)
				log.opened++
			}
			active++
			raw := pool[l.read]
			if l.off >= len(raw) {
				// The read ended undecided: the end of signal decides it.
				if l.cross.IsZero() {
					l.cross = time.Now()
				}
				call("finalize", l, l.s.finalize)
				if l.s != nil {
					return fmt.Errorf("read %d: undecided after Finalize", l.id)
				}
				continue
			}
			end := min(l.off+chunkSamples, len(raw))
			chunk := raw[l.off:end]
			if l.off < sys.prefix && end >= sys.prefix {
				l.cross = time.Now()
			}
			l.off = end
			call("feed", l, func() { l.s.feed(chunk) })
		}
		if active == 0 {
			return nil
		}
		if stopping && sys.flush != nil {
			// No new read will fill the group: once every read still in
			// flight has its deciding prefix, flush it.
			pending, live := 0, 0
			var first *lane
			for i := range lanes {
				l := &lanes[i]
				if l.s == nil {
					continue
				}
				live++
				if !l.cross.IsZero() {
					pending++
					if first == nil {
						first = l
					}
				}
			}
			if pending > 0 && pending == live {
				var err error
				call("flush", first, func() { err = sys.flush(ch) })
				if err != nil {
					return fmt.Errorf("read %d: flush: %w", first.id, err)
				}
			}
		}
	}
}
