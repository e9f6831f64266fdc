package netcomm

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Transport is the socket-backed comm.Transport: one connection per peer
// process, one writer goroutine per peer coalescing queued packets into
// frames, one reader goroutine per live connection dispatching decoded
// packets into the World's delivery callback.  Construct via Lead/Join
// (rendezvous.go); pass to comm.NewWorldTransport.
type Transport struct {
	network  string
	worldID  string
	size     int
	procID   int
	procs    []ProcInfo
	rankProc []int // rank -> procID
	chaos    NetChaos

	ln     net.Listener
	tmpDir string // auto-created unix-socket dir, removed on Stop

	// deliverFn is installed by Start; startCh gates reader dispatch until
	// then (frames can arrive between rendezvous completion and World
	// construction).
	deliverFn func(comm.Packet)
	startCh   chan struct{}

	peers []*peer // indexed by procID; nil at self

	closed   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	tracer atomic.Pointer[obs.Tracer]

	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	dials      atomic.Int64
	dialNanos  atomic.Int64
	reconnects atomic.Int64
	chaosDrops atomic.Int64
	queueDrops atomic.Int64
}

// Stats is a snapshot of the transport's physical-layer counters, the
// socket analogue of comm.NetStats.
type Stats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	Dials                  int64
	DialNanos              int64 // cumulative dial+handshake latency
	Reconnects             int64 // successful redials after a dropped connection
	ChaosDrops             int64 // frames dropped by injected fault config
	QueueDrops             int64 // packets dropped on a full per-peer out-queue
}

// outQueueCap bounds each peer's send queue (in packets).  A full queue
// drops the packet — the reliable layer retransmits — so a stalled peer
// degrades into retries instead of unbounded memory growth.
const outQueueCap = 4096

// peer is the connection state for one remote process.
type peer struct {
	t      *Transport
	procID int
	// dialer: this side owns (re)dialing — the lower procID dials the
	// higher, so exactly one side redials after a drop.
	dialer  bool
	network string
	addr    string

	out chan []byte // encoded packets, pooled buffers

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	gen  uint64 // connection generation, bumped every successful (re)dial
}

// newTransport assembles the transport after the rendezvous map is known.
// Mesh connections are established separately (establishMesh / the accept
// loop); writer goroutines start immediately but touch no connection
// until a packet is queued.
func newTransport(worldID string, procID int, procs []ProcInfo, size int, chaos NetChaos, ln net.Listener, tmpDir string) *Transport {
	t := &Transport{
		network: procs[procID].Network,
		worldID: worldID,
		size:    size,
		procID:  procID,
		procs:   procs,
		chaos:   chaos,
		ln:      ln,
		tmpDir:  tmpDir,
		startCh: make(chan struct{}),
		closed:  make(chan struct{}),
	}
	t.rankProc = make([]int, size)
	for id, pr := range procs {
		for r := pr.Span.Lo; r < pr.Span.Hi; r++ {
			t.rankProc[r] = id
		}
	}
	t.peers = make([]*peer, len(procs))
	for id, pr := range procs {
		if id == procID {
			continue
		}
		p := &peer{
			t:       t,
			procID:  id,
			dialer:  procID < id,
			network: pr.Network,
			addr:    pr.Addr,
			out:     make(chan []byte, outQueueCap),
		}
		p.cond = sync.NewCond(&p.mu)
		t.peers[id] = p
		t.wg.Add(1)
		go p.writeLoop()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Start installs the World's delivery callback (comm.Transport contract:
// called exactly once, before any Send).
func (t *Transport) Start(deliver func(comm.Packet)) {
	t.deliverFn = deliver
	close(t.startCh)
}

// Reliable is false: the socket layer may lose frames (write errors,
// dropped connections, full queues, chaos), and the World's seq/ack
// protocol recovers them.  This is what makes reconnection cheap — no
// connection-level state needs to survive a drop.
func (t *Transport) Reliable() bool { return false }

// Send routes one packet: local destinations deliver synchronously,
// remote ones are serialized and queued to the destination process's
// writer.  Safe for concurrent use (rank goroutines, the retransmitter
// and reader goroutines emitting acks all call it).
func (t *Transport) Send(p comm.Packet) {
	select {
	case <-t.closed:
		return
	default:
	}
	if p.Dst < 0 || p.Dst >= t.size {
		return
	}
	proc := t.rankProc[p.Dst]
	if proc == t.procID {
		t.deliverFn(p)
		return
	}
	if t.chaos.drops(p) {
		t.count(obs.CounterNetChaosDrops, &t.chaosDrops, 1)
		return
	}
	// Serialize now, on the sender's goroutine: the payload is guaranteed
	// stable here (post and the retransmitter both hold happens-before
	// edges on the wire copy), while a later read on the writer goroutine
	// could race wire-copy recycling.  See World.retainsWire.
	buf := comm.AppendPacket(comm.GetBuf(), p)
	select {
	case t.peers[proc].out <- buf:
	default:
		comm.PutBuf(buf)
		t.count(obs.CounterNetQueueDrops, &t.queueDrops, 1)
	}
}

// Stop tears the transport down: closes the listener and every
// connection, wakes every goroutine, joins them all, and removes any
// auto-created unix socket directory.  Idempotent; Send may race it (the
// retransmitter does) and becomes a no-op.
func (t *Transport) Stop() {
	t.stopOnce.Do(func() {
		// Flush: give the writers a beat to put already-queued frames on
		// the wire before the connections go away.  The final acks of a
		// finished process are enqueued moments before Close reaches
		// here; discarding them would leave peers retransmitting into a
		// dead socket until their own quiesce bound expires.
		deadline := time.Now().Add(time.Second)
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			for len(p.out) > 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
		}
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		t.wg.Wait()
		// Drain queued buffers back to the pool now that no writer runs.
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			for {
				select {
				case b := <-p.out:
					comm.PutBuf(b)
				default:
					goto next
				}
			}
		next:
		}
		if t.tmpDir != "" {
			os.RemoveAll(t.tmpDir)
		}
	})
}

// SetTracer mirrors the transport's physical counters into the world's
// tracer (World.SetTracer forwards here).  Counters are attributed to the
// lowest local rank: frames belong to the process, not to any one rank.
func (t *Transport) SetTracer(tr *obs.Tracer) { t.tracer.Store(tr) }

// RetainsWire reports that payloads bound for remote processes are read
// by the transport outside the Send call (retransmissions racing their
// own ack), so the reliable layer must not recycle those wire copies.
func (t *Transport) RetainsWire(dst int) bool {
	return dst >= 0 && dst < t.size && t.rankProc[dst] != t.procID
}

// Stats returns a snapshot of the physical-layer counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesSent: t.framesSent.Load(),
		FramesRecv: t.framesRecv.Load(),
		BytesSent:  t.bytesSent.Load(),
		BytesRecv:  t.bytesRecv.Load(),
		Dials:      t.dials.Load(),
		DialNanos:  t.dialNanos.Load(),
		Reconnects: t.reconnects.Load(),
		ChaosDrops: t.chaosDrops.Load(),
		QueueDrops: t.queueDrops.Load(),
	}
}

// Addr returns the mesh listener's resolved address (the bind-port-0 /
// temp-socket result), which is what rides the rendezvous map.
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// ProcID returns this process's index in the world map.
func (t *Transport) ProcID() int { return t.procID }

func (t *Transport) localLo() int { return t.procs[t.procID].Span.Lo }

func (t *Transport) count(name string, c *atomic.Int64, n int64) {
	c.Add(n)
	if tr := t.tracer.Load(); tr != nil {
		tr.Add(t.localLo(), name, n)
	}
}

// --- writer side ---

func (p *peer) writeLoop() {
	defer p.t.wg.Done()
	for {
		first, ok := p.nextPacket()
		if !ok {
			return
		}
		// Coalesce whatever else is already queued, up to the target.
		batch := append(getEncodedBatch(), first)
		size := len(first)
	drain:
		for size < coalesceTarget {
			select {
			case b := <-p.out:
				batch = append(batch, b)
				size += len(b)
			default:
				break drain
			}
		}
		frame := buildPacketsFrame(comm.GetBuf(), batch...)
		putEncodedBatch(batch)
		conn := p.waitConn()
		if conn == nil {
			comm.PutBuf(frame)
			return // transport stopped
		}
		// Count before writing: the peer may act on the frame before Write
		// returns here, and whatever it observes must already be counted.
		p.t.count(obs.CounterNetFramesSent, &p.t.framesSent, 1)
		p.t.count(obs.CounterNetBytesSent, &p.t.bytesSent, int64(len(frame)))
		if _, err := conn.Write(frame); err != nil {
			// The frame's packets are lost; the reliable layer will
			// retransmit them.  Take the frame back off the meter and drop
			// the connection so the dialer side redials with a bumped
			// generation.
			p.t.count(obs.CounterNetFramesSent, &p.t.framesSent, -1)
			p.t.count(obs.CounterNetBytesSent, &p.t.bytesSent, -int64(len(frame)))
			p.dropConn(conn)
		}
		comm.PutBuf(frame)
	}
}

// batchPool recycles the small [][]byte headers the writer coalesces
// into; the payload buffers themselves go through comm's pool.
var batchPool = sync.Pool{New: func() any { b := make([][]byte, 0, 64); return &b }}

func getEncodedBatch() [][]byte { return (*batchPool.Get().(*[][]byte))[:0] }
func putEncodedBatch(b [][]byte) {
	for i := range b {
		b[i] = nil
	}
	batchPool.Put(&b)
}

// nextPacket blocks for the next queued packet; ok is false on Stop.
func (p *peer) nextPacket() ([]byte, bool) {
	select {
	case b := <-p.out:
		return b, true
	case <-p.t.closed:
		return nil, false
	}
}

// waitConn blocks until a connection is live (the keeper or the remote
// side re-establishes it) and returns it; nil on Stop.
func (p *peer) waitConn() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		select {
		case <-p.t.closed:
			return nil
		default:
		}
		if p.conn != nil {
			return p.conn
		}
		p.cond.Wait() // install (here or via accept) wakes us
	}
}

// keeperLoop owns redialing for a dialer-side peer: whenever the
// connection is down it redials with backoff and a bumped generation,
// independent of outbound traffic — the remote side may be the only one
// with packets to send, and it cannot dial us.  Spawned after the initial
// establishMesh dial succeeds.
func (p *peer) keeperLoop() {
	defer p.t.wg.Done()
	backoff := 5 * time.Millisecond
	p.mu.Lock()
	for {
		select {
		case <-p.t.closed:
			p.mu.Unlock()
			return
		default:
		}
		if p.conn != nil {
			backoff = 5 * time.Millisecond
			p.cond.Wait() // dropConn wakes us
			continue
		}
		gen := p.gen + 1
		p.mu.Unlock()
		c, err := p.t.dialPeer(p, gen)
		if err != nil {
			select {
			case <-p.t.closed:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 250*time.Millisecond {
				backoff = 250 * time.Millisecond
			}
		} else {
			p.install(c, gen)
		}
		p.mu.Lock()
	}
}

// dialPeer dials the peer's mesh listener and runs the peerHello /
// peerWelcome handshake.  gen rides the hello so the acceptor can order
// reconnects.
func (t *Transport) dialPeer(p *peer, gen uint64) (net.Conn, error) {
	start := time.Now()
	c, err := net.DialTimeout(p.network, p.addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	hello := peerHelloMsg{worldID: t.worldID, fromProc: t.procID, gen: gen}
	_ = c.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if err := writeFrame(c, ftPeerHello, hello.encode()); err != nil {
		c.Close()
		return nil, err
	}
	_ = c.SetWriteDeadline(time.Time{})
	body, err := readControlFrame(c, c, ftPeerWelcome)
	if err != nil {
		c.Close()
		return nil, err
	}
	if _, _, err := checkPreamble(body, t.worldID); err != nil {
		c.Close()
		return nil, err
	}
	t.count(obs.CounterNetDials, &t.dials, 1)
	t.count(obs.CounterNetDialNanos, &t.dialNanos, time.Since(start).Nanoseconds())
	return c, nil
}

// install publishes a fresh connection for the peer (spawning its reader)
// unless a newer generation already took over.  Reports whether the
// connection was accepted.
func (p *peer) install(c net.Conn, gen uint64) bool {
	p.mu.Lock()
	select {
	case <-p.t.closed:
		p.mu.Unlock()
		c.Close()
		return false
	default:
	}
	if gen <= p.gen && p.conn != nil {
		p.mu.Unlock()
		c.Close() // stale duplicate of a connection we already replaced
		return false
	}
	if p.conn != nil {
		p.conn.Close() // the old reader will exit on its read error
	}
	if p.gen > 0 {
		p.t.count(obs.CounterNetReconnects, &p.t.reconnects, 1)
	}
	p.conn = c
	if gen > p.gen {
		p.gen = gen
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.t.wg.Add(1)
	go p.t.readLoop(p, c, bufio.NewReaderSize(c, 64<<10))
	return true
}

// installWithReader is install for the accept path, where the handshake
// already consumed from a buffered reader that must keep serving the
// connection.
func (p *peer) installWithReader(c net.Conn, gen uint64, br *bufio.Reader) bool {
	p.mu.Lock()
	select {
	case <-p.t.closed:
		p.mu.Unlock()
		c.Close()
		return false
	default:
	}
	if gen <= p.gen && p.conn != nil {
		p.mu.Unlock()
		c.Close()
		return false
	}
	if p.conn != nil {
		p.conn.Close()
	}
	if p.gen > 0 {
		p.t.count(obs.CounterNetReconnects, &p.t.reconnects, 1)
	}
	p.conn = c
	if gen > p.gen {
		p.gen = gen
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.t.wg.Add(1)
	go p.t.readLoop(p, c, br)
	return true
}

// dropConn retires a dead connection; the dialer side's writer redials on
// its next waitConn.
func (p *peer) dropConn(c net.Conn) {
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	c.Close()
}

// DropConnections force-closes every live mesh connection, simulating a
// network fault.  Dialer-side writers redial with a bumped generation;
// packets lost in between are retransmitted by the reliable layer.  Used
// by fault tests and the socket chaos sweep.
func (t *Transport) DropConnections() {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		c := p.conn
		p.mu.Unlock()
		if c != nil {
			p.dropConn(c)
		}
	}
}

// --- reader side ---

// readLoop decodes frames from one connection and dispatches packets into
// the World.  Delivery is synchronous: backpressure from a full mailbox
// propagates to this connection, stalling (not dropping) its traffic,
// exactly as the in-process transports stall their delivering goroutine.
func (t *Transport) readLoop(p *peer, c net.Conn, br *bufio.Reader) {
	defer t.wg.Done()
	var buf []byte
	for {
		ft, body, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			p.dropConn(c)
			return
		}
		if ft != ftPackets {
			// Control frames have no business on an established mesh
			// connection; treat as desync and force a reconnect.
			p.dropConn(c)
			return
		}
		t.count(obs.CounterNetFramesRecv, &t.framesRecv, 1)
		t.count(obs.CounterNetBytesRecv, &t.bytesRecv, int64(len(body)+5))
		select {
		case <-t.startCh:
		case <-t.closed:
			p.dropConn(c)
			return
		}
		for off := 0; off < len(body); {
			pkt, next, perr := comm.PacketAt(body, off)
			if perr != nil {
				p.dropConn(c)
				return
			}
			off = next
			// pkt.Data aliases the read buffer; World.onPacket copies
			// anything it retains before returning, so reuse is safe.
			t.deliverFn(pkt)
		}
	}
}

// --- accept side ---

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			// A deadline armed during the rendezvous may still lapse here;
			// only a closed listener ends the loop.
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // listener closed by Stop (or rendezvous teardown)
		}
		t.wg.Add(1)
		go t.handleInbound(c)
	}
}

// handleInbound runs the acceptor side of the mesh handshake.
func (t *Transport) handleInbound(c net.Conn) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(c, 64<<10)
	body, err := readControlFrame(c, br, ftPeerHello)
	if err != nil {
		sendError(c, err)
		c.Close()
		return
	}
	hello, err := decodePeerHello(body, t.worldID)
	if err != nil {
		sendError(c, err)
		c.Close()
		return
	}
	if hello.fromProc < 0 || hello.fromProc >= len(t.peers) || t.peers[hello.fromProc] == nil {
		sendError(c, fmt.Errorf("%w: unknown proc %d", ErrHandshake, hello.fromProc))
		c.Close()
		return
	}
	p := t.peers[hello.fromProc]
	if p.dialer {
		// We dial them, they do not dial us: a hello from that side means
		// the maps disagree.
		sendError(c, fmt.Errorf("%w: proc %d must be dialed by proc %d, not dial it", ErrHandshake, t.procID, hello.fromProc))
		c.Close()
		return
	}
	_ = c.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if err := writeFrame(c, ftPeerWelcome, appendPreamble(nil, t.worldID)); err != nil {
		c.Close()
		return
	}
	_ = c.SetWriteDeadline(time.Time{})
	if !p.installWithReader(c, hello.gen, br) {
		return // stale duplicate, already closed
	}
}

// establishMesh dials every higher-procID peer (the lower side dials), as
// part of the rendezvous before the ready/start barrier.
func (t *Transport) establishMesh() error {
	for id, p := range t.peers {
		if p == nil || !p.dialer {
			continue
		}
		c, err := t.dialPeer(p, 1)
		if err != nil {
			return fmt.Errorf("netcomm: dialing proc %d at %s: %w", id, p.addr, err)
		}
		p.install(c, 1)
		t.wg.Add(1)
		go p.keeperLoop()
	}
	return nil
}
