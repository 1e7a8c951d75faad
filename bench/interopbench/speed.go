package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A shared machine's speed moves with what its neighbours run: on one
// 2-vCPU virtual machine the median latency of the same requests, taken
// over successive 25 s windows of an idle-looking eight minutes, ranged
// over 31–47% of its median. Every timing the benchmark gates is
// therefore read against a speed probe: a fixed kernel that the load
// generator times about every probeEvery while no request is in flight.
// A request's latency is divided by the machine's slowdown at that
// moment, the median time of the probes nearest it over refProbe, and so
// reads as on the machine at its reference speed. Over the same windows
// the slowed-down latencies ranged over 6–14%. The kernel is a little of
// what the daemon does (a pointer chase through a 256 KiB ring, a
// breadth-first search on a grid, parsing text into a map, sorting):
// their sum tracked the daemon's latencies more closely than any one part
// did. The kernel runs no daemon code, so a change that slows the daemon
// shows in full.

const (
	// probeEvery is the least time between two probes of a timed phase.
	probeEvery = 100 * time.Millisecond
	// probeSpan is how many probes on each side of a moment its slowdown
	// is taken over.
	probeSpan = 4
)

// refProbe is the kernel's median time on the 2-vCPU virtual machine the
// benchmark was defined on, in a quiet hour.
const refProbe = 2000 * time.Microsecond

// probeSink keeps the compiler from dropping the kernel's work.
var probeSink int

var (
	ring = func() []int32 {
		perm := rand.New(rand.NewSource(1)).Perm(1 << 16)
		r := make([]int32, len(perm))
		for i, p := range perm {
			r[p] = int32(perm[(i+1)%len(perm)])
		}
		return r
	}()
	maze = func() []bool {
		rng := rand.New(rand.NewSource(2))
		g := make([]bool, mazeSide*mazeSide)
		for i := range g {
			g[i] = rng.Intn(4) == 0
		}
		g[0] = false
		return g
	}()
	netText = func() []byte {
		rng := rand.New(rand.NewSource(3))
		var b bytes.Buffer
		for i := 0; i < 800; i++ {
			fmt.Fprintf(&b, "(net n%d (pin %d %d) (pin %d %d))\n", i, rng.Intn(1e6), rng.Intn(1e6), rng.Intn(1e6), rng.Intn(1e6))
		}
		return b.Bytes()
	}()
	parens = strings.NewReplacer("(", " ", ")", " ")
)

const mazeSide = 96

// probe runs the kernel once and returns how long it took.
func probe() time.Duration {
	t0 := time.Now()
	p := int32(0)
	for i := 0; i < 60_000; i++ {
		p = ring[p]
	}
	dist := make([]int32, len(maze))
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	for q := []int{0}; len(q) > 0; q = q[1:] {
		c := q[0]
		x := c % mazeSide
		for _, n := range [4]int{c - 1, c + 1, c - mazeSide, c + mazeSide} {
			if n < 0 || n >= len(maze) || x == 0 && n == c-1 || x == mazeSide-1 && n == c+1 || maze[n] || dist[n] >= 0 {
				continue
			}
			dist[n] = dist[c] + 1
			q = append(q, n)
		}
	}
	pins := map[string]int64{}
	for _, line := range bytes.Split(netText, []byte("\n")) {
		f := strings.Fields(parens.Replace(string(line)))
		if len(f) > 1 {
			v, _ := strconv.ParseInt(f[len(f)-1], 10, 64)
			pins[f[1]] = v
		}
	}
	rng := rand.New(rand.NewSource(4))
	keys := make([]int, 3000)
	for i := range keys {
		keys[i] = rng.Int()
	}
	sort.Ints(keys)
	probeSink += int(p) + int(dist[len(dist)-1]) + len(pins) + keys[0]&1
	return time.Since(t0)
}

// speedo records the probes of one phase: when each started, from the
// phase's start, and how long it took.
type speedo struct {
	start time.Time
	mu    sync.Mutex
	at    []time.Duration
	took  []time.Duration
}

func newSpeedo(start time.Time) *speedo { return &speedo{start: start} }

// maybe probes if no probe has started in the last probeEvery and no
// other caller is probing.
func (s *speedo) maybe() {
	if !s.mu.TryLock() {
		return
	}
	defer s.mu.Unlock()
	if n := len(s.at); n == 0 || time.Since(s.start)-s.at[n-1] >= probeEvery {
		at := time.Since(s.start)
		s.at, s.took = append(s.at, at), append(s.took, probe())
	}
}

// slowdown is how much slower than at its reference speed the machine
// ran at t: the median time of the 2*probeSpan+1 probes started nearest
// t, over refProbe. With no probes it is 1.
func (s *speedo) slowdown(t time.Duration) float64 {
	if len(s.at) == 0 {
		return 1
	}
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= t })
	lo := max(0, min(i-probeSpan, len(s.at)-2*probeSpan-1))
	hi := min(len(s.at), lo+2*probeSpan+1)
	near := make([]float64, 0, hi-lo)
	for _, d := range s.took[lo:hi] {
		near = append(near, float64(d))
	}
	return median(near) / float64(refProbe)
}

// typical is the phase's median slowdown over all its probes.
func (s *speedo) typical() float64 {
	took := make([]float64, len(s.took))
	for i, d := range s.took {
		took[i] = float64(d)
	}
	return median(took) / float64(refProbe)
}
