package netcomm_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/netcomm"
)

// TestSocketSendAllocs bounds what a message costs in allocations on the
// socket path — Send, serialize, writer coalesce, socket, readLoop,
// reliable-layer accept, mailbox — in a two-rank world joined over loopback
// TCP inside this process.  The count is process-wide, so it includes the
// echoing rank and the transport goroutines.  The bounds sit about 50 %
// above the counts measured on go1.24 (RTT 38–39, stream 13–14), because
// the windowed ack amortization can shift them.  Under the race detector
// sync.Pool drops puts and the counts rise, so the test runs without it.
func TestSocketSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const (
		runs   = 100
		window = 64 // stream sends per ack, far below the writer queue capacity
	)
	c := startCluster(t, "tcp", 2, 2, netcomm.NetChaos{})
	defer c.Close()
	small, bulk := make([]byte, 64), make([]byte, 16<<10)
	var rtt, stream float64
	trips, windows := 0, 0
	c.Run(func(cm *comm.Comm) {
		// AllocsPerRun calls its function once more than runs to warm up.
		if cm.Rank() == 1 {
			for i := 0; i <= runs; i++ {
				cm.Send(0, 2, cm.Recv(0, 1))
			}
			for i := 0; i <= runs; i++ {
				for j := 0; j < window; j++ {
					cm.Recv(0, 3)
				}
				cm.Send(0, 4, nil)
			}
			return
		}
		rtt = testing.AllocsPerRun(runs, func() {
			cm.Send(1, 1, small)
			cm.Recv(1, 2)
			trips++
		})
		stream = testing.AllocsPerRun(runs, func() {
			for j := 0; j < window; j++ {
				cm.Send(1, 3, bulk)
			}
			cm.Recv(1, 4)
			windows++
		}) / window
	})
	if trips != runs+1 || windows != runs+1 {
		t.Fatalf("completed %d round trips and %d stream windows, want %d each", trips, windows, runs+1)
	}
	t.Logf("allocations: %v per 64 B round trip, %v per 16 KiB send", rtt, stream)
	if rtt > 58 {
		t.Errorf("64 B round trip: %v allocations, want at most 58", rtt)
	}
	if stream > 21 {
		t.Errorf("16 KiB send: %v allocations, want at most 21", stream)
	}
}
