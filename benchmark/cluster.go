package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/netcomm"
	"repro/internal/obs"
)

// worldTimeout is the watchdog armed on every world: a hung collective
// becomes a failed repetition after this long, never a hung benchmark.
const worldTimeout = 30 * time.Second

// cluster is one world of P ranks as a workload sees it: either a single
// comm.World on the default in-process transport, or two comm.Worlds of the
// full size, each hosting half the ranks, joined by netcomm transports over
// a unix socket — the layout of a run across two OS processes, inside one.
type cluster struct {
	worlds []*comm.World
	spans  []netcomm.Span
	// rendezvous is the time Listen/Lead/Join took (zero in-process).
	rendezvous time.Duration
	cleanup    func()
}

var socketSeq atomic.Int64

// newCluster creates a world of p ranks.  With socket set, sockDir is where
// the unix sockets are created (relative paths keep them short).
func newCluster(p int, socket bool, sockDir string) (*cluster, error) {
	if !socket {
		w := comm.NewWorld(p)
		w.SetTimeout(worldTimeout)
		return &cluster{worlds: []*comm.World{w}, spans: []netcomm.Span{{Lo: 0, Hi: p}}, cleanup: func() {}}, nil
	}
	start := time.Now()
	dir := filepath.Join(sockDir, fmt.Sprintf("s%d-%d", os.Getpid(), socketSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	removeDir := func() { os.RemoveAll(dir) }
	lead, join := netcomm.Span{Lo: 0, Hi: p / 2}, netcomm.Span{Lo: p / 2, Hi: p}
	addr := filepath.Join(dir, "lead.sock")
	ln, _, err := netcomm.Listen("unix", addr)
	if err != nil {
		removeDir()
		return nil, fmt.Errorf("listening on %s: %w", addr, err)
	}
	var (
		trs  [2]*netcomm.Transport
		errs [2]error
		wg   sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		trs[0], _, errs[0] = netcomm.Lead(ln, netcomm.LeadConfig{WorldSize: p, Procs: 2, Span: lead, Timeout: worldTimeout})
	}()
	go func() {
		defer wg.Done()
		trs[1], _, errs[1] = netcomm.Join(netcomm.JoinConfig{Network: "unix", Addr: addr,
			ListenAddr: filepath.Join(dir, "join.sock"), Span: join, Timeout: worldTimeout})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if other := trs[1-i]; other != nil {
				other.Stop()
			}
			removeDir()
			return nil, fmt.Errorf("socket rendezvous: %w", err)
		}
	}
	cl := &cluster{spans: []netcomm.Span{lead, join}, cleanup: removeDir}
	for _, tr := range trs {
		w := comm.NewWorldTransport(p, tr)
		w.SetTimeout(worldTimeout)
		cl.worlds = append(cl.worlds, w)
	}
	cl.rendezvous = time.Since(start)
	return cl, nil
}

// run executes fn on every rank and waits for all of them.  A panic on any
// rank (including the watchdog's) comes back as an error.
func (cl *cluster) run(fn func(c *comm.Comm)) error {
	errs := make([]string, len(cl.worlds))
	var wg sync.WaitGroup
	for i, w := range cl.worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Sprint(p)
				}
			}()
			w.RunRanks(cl.spans[i].Lo, cl.spans[i].Hi, fn)
		}()
	}
	wg.Wait()
	var failed []string
	for _, e := range errs {
		if e != "" {
			failed = append(failed, e)
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "\n"))
	}
	return nil
}

// close shuts every world down — concurrently, because a socket world
// waits for its peer's acknowledgements before it stops its transport —
// and removes the socket directory.
func (cl *cluster) close() {
	var wg sync.WaitGroup
	for _, w := range cl.worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Close()
		}()
	}
	wg.Wait()
	cl.cleanup()
}

func (cl *cluster) setTracer(tr *obs.Tracer) {
	for _, w := range cl.worlds {
		w.SetTracer(tr)
	}
}

// phaseStats sums the logical comm meters of one phase label over the
// worlds (each world meters the sends of the ranks it hosts).
func (cl *cluster) phaseStats(phase string) comm.Stats {
	var s comm.Stats
	for _, w := range cl.worlds {
		s.Add(w.PhaseStats(phase))
	}
	return s
}

// netStats sums the physical-layer counters of the netcomm-backed worlds.
// An in-process world has no netcomm layer, so it reports zeros.
func (cl *cluster) netStats() comm.NetStats {
	var n comm.NetStats
	if len(cl.worlds) == 1 {
		return n
	}
	for _, w := range cl.worlds {
		addNet(&n, w.NetStats(), 1)
	}
	return n
}

// addNet adds sign × s to the counters of dst the benchmark reports.
func addNet(dst *comm.NetStats, s comm.NetStats, sign int64) {
	dst.DataPackets += sign * s.DataPackets
	dst.AckPackets += sign * s.AckPackets
	dst.Retries += sign * s.Retries
	dst.WireBytes += sign * s.WireBytes
}
