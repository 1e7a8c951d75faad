package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cadinterop/internal/serve"
)

// newClient is the load generator's HTTP client: at most conns
// keep-alive connections to the daemon, so at most conns requests are
// ever in flight.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one request. Any transport error or non-200 status is an
// error. With decode the response body is decoded; otherwise it is only
// drained, which keeps the generator's own CPU use low at high rates.
func post(client *http.Client, url string, r request, decode bool) (serve.Response, error) {
	var out serve.Response
	resp, err := client.Post(url+"/v1/"+r.endpoint(), "application/json", bytes.NewReader(r.json()))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if !decode {
		_, err := io.Copy(io.Discard, resp.Body)
		return out, err
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decode response: %w", err)
	}
	return out, nil
}

// loadResult is what one timed phase observed.
type loadResult struct {
	samples []sample        // successful requests
	late    []time.Duration // send time minus due time, sorted
	sent    int
	errs    []error // one per failed request, in completion order
	// kept holds the request and decoded response of every request keep
	// selected, by index, for the oracle.
	kept map[int]kept
}

type kept struct {
	req  request
	resp serve.Response
}

// sample is one successful request: when it completed, from the start of
// the phase, and its latency.
type sample struct{ done, latency time.Duration }

// drive runs a timed phase from start. With arrivals nil, clients run a
// closed loop, each sending its next request when the previous one
// returns, until d has elapsed; requests in flight then finish.
// Otherwise each request is sent at its due time (or as soon as a client
// is free, if all are busy), and its latency is measured from the due
// time, so a stall counts against every request it delays. keep is
// called once per request, never concurrently. Unless sp is nil, a
// client that finds no request in flight first lets sp probe the
// machine's speed, so the probe never competes with the daemon's work.
func drive(client *http.Client, url string, clients int, next func(i int) request,
	arrivals []time.Duration, start time.Time, d time.Duration, keep func(i int, r request) bool, sp *speedo) *loadResult {
	res := &loadResult{kept: map[int]kept{}}
	var (
		mu       sync.Mutex
		idx      atomic.Int64
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if sp != nil && inflight.Load() == 0 {
					sp.maybe()
				}
				i := int(idx.Add(1) - 1)
				// In a closed loop a request is due as soon as its client is
				// free, so its lateness is the generator's own overhead.
				due := time.Now()
				if arrivals == nil {
					if due.Sub(start) >= d {
						return
					}
				} else {
					if i >= len(arrivals) {
						return
					}
					due = start.Add(arrivals[i])
					time.Sleep(time.Until(due))
				}
				r := next(i)
				mu.Lock()
				k := keep(i, r)
				mu.Unlock()
				inflight.Add(1)
				sent := time.Now()
				resp, err := post(client, url, r, k)
				done := time.Now()
				inflight.Add(-1)
				from := due
				if arrivals == nil {
					from = sent
				}
				mu.Lock()
				res.sent++
				if err != nil {
					res.errs = append(res.errs, fmt.Errorf("request %d (%s): %w", i, r.endpoint(), err))
				} else {
					res.samples = append(res.samples, sample{done.Sub(start), done.Sub(from)})
					if k {
						res.kept[i] = kept{r, resp}
					}
				}
				res.late = append(res.late, sent.Sub(due))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sortDurations(res.late)
	return res
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// usage samples a process's CPU time and resident set about every 100ms
// of a timed phase, and once more when the phase's last request returns.
type usage struct {
	at  []time.Duration // when each CPU sample was taken, from the phase's start
	cpu []time.Duration
	rss []int64
}

func sampleUsage(pid int, start time.Time, done <-chan struct{}) (*usage, error) {
	u := &usage{}
	for {
		at := time.Since(start)
		c, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		u.at, u.cpu = append(u.at, at), append(u.cpu, c)
		if rss, err := residentSet(pid); err == nil {
			u.rss = append(u.rss, rss)
		}
		select {
		case <-done:
			return u, nil
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// phaseStats are a timed phase's end-to-end figures, each time in them
// divided by the machine's slowdown when it was spent (see speedo).
type phaseStats struct {
	rps       float64 // completions per second
	cpuPerReq float64 // the daemon's CPU milliseconds per completion
	p50, p90  float64 // latency percentiles, ms
	p99       float64
}

// phaseFigures computes the phase's figures over all of its requests. A
// closed loop's rate is its one client's: completions over the sum of
// their latencies. The open loop's is completions over the time from the
// phase's start to the last completion: its arrivals, not the machine's
// speed, set the pace, and a daemon that falls behind stretches it.
func phaseFigures(samples []sample, u *usage, sp *speedo, open bool) phaseStats {
	lats := make([]time.Duration, len(samples))
	var busy, last time.Duration
	for i, s := range samples {
		lats[i] = time.Duration(float64(s.latency) / sp.slowdown(s.done-s.latency/2))
		busy += lats[i]
		last = max(last, s.done)
	}
	sortDurations(lats)
	var cpu float64
	for k := 1; k < len(u.cpu); k++ {
		cpu += float64(u.cpu[k]-u.cpu[k-1]) / sp.slowdown((u.at[k-1]+u.at[k])/2)
	}
	n := float64(len(samples))
	st := phaseStats{
		cpuPerReq: ms(time.Duration(cpu)) / n,
		p50:       ms(percentile(lats, 50)),
		p90:       ms(percentile(lats, 90)),
		p99:       ms(percentile(lats, 99)),
	}
	if open {
		st.rps = n / last.Seconds()
	} else {
		st.rps = n / busy.Seconds()
	}
	return st
}
