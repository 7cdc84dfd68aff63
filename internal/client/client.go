// Package client is a minimal but real BitTorrent peer built on
// internal/wire and internal/storage: it handshakes over any net.Conn,
// exchanges bitfields and have messages, requests verified pieces, serves
// held pieces to its neighbors, and keeps seeding after completion.
//
// Its download policy is where the paper's multi-file torrent schemes
// become concrete:
//
//   - PolicyConcurrent wants every piece of every requested file at once —
//     MFCD, what stock clients do.
//   - PolicySequential wants the requested files one at a time in order —
//     CMFSD's download side. Because the client serves every piece it
//     holds, a sequential peer that has finished its first file is exactly
//     the paper's "partial seed" for that file's subtorrent.
//
// Peers find each other through internal/tracker: Listen accepts inbound
// connections, and Bootstrap announces and dials the peers the tracker
// returns (session.go). The client is deliberately small: no endgame mode
// and no tit-for-tat throttling — it unchokes every interested peer, and
// honours a remote's choke. Bandwidth competition, tit-for-tat included, is
// the fluid models' and the chunk simulator's (internal/swarm) job; this
// package proves the protocol path end to end.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mfdl/internal/metainfo"
	"mfdl/internal/storage"
	"mfdl/internal/wire"
)

// Policy selects the piece-request order.
type Policy int

// Download policies.
const (
	// PolicyConcurrent requests across all wanted files (MFCD).
	PolicyConcurrent Policy = iota
	// PolicySequential finishes file k before requesting file k+1 (CMFSD).
	PolicySequential
)

// Config parameterizes a peer.
type Config struct {
	Info  *metainfo.Info
	Store *storage.Store
	// PeerID is this peer's wire identity.
	PeerID [20]byte
	// Policy is the request order (ignored for seeds).
	Policy Policy
	// Files lists requested file indices in download order; nil means
	// all files in torrent order.
	Files []int
	// RequestTimeout, when positive, bounds how long a piece request may
	// stay in flight: a per-connection watchdog drops timed-out requests
	// and immediately re-requests the pieces (on this or any other
	// connection), so a stalled remote costs a timeout, not a deadlock.
	// Zero disables the watchdog.
	RequestTimeout time.Duration
}

// maxOutstanding bounds in-flight piece requests per connection.
const maxOutstanding = 4

// Client is one peer. Create with New, attach connections with AddConn.
type Client struct {
	cfg      Config
	infoHash [20]byte
	wanted   []int // piece indices in request order

	mu    sync.Mutex
	conns map[*conn]struct{}
	done  chan struct{}
	errs  []error
}

type conn struct {
	c          *Client
	nc         net.Conn
	out        chan *wire.Message
	quit       chan struct{}
	remoteHave wire.Bitfield

	mu            sync.Mutex
	remoteChoking bool // remote is choking us
	weInterested  bool
	inflight      map[int]time.Time // piece -> request time
	closed        bool
}

// New validates the configuration and returns an idle client.
func New(cfg Config) (*Client, error) {
	if cfg.Info == nil || cfg.Store == nil {
		return nil, errors.New("client: nil info or store")
	}
	if err := cfg.Info.Validate(); err != nil {
		return nil, err
	}
	files := cfg.Files
	if files == nil {
		files = make([]int, len(cfg.Info.Files))
		for i := range files {
			files[i] = i
		}
	}
	ranges := cfg.Info.FilePieces()
	perFile := make([][]int, 0, len(files))
	for _, f := range files {
		if f < 0 || f >= len(ranges) {
			return nil, fmt.Errorf("client: file index %d out of range", f)
		}
		r := ranges[f]
		pieces := make([]int, 0, r.Count())
		for p := r.First; p <= r.Last; p++ {
			pieces = append(pieces, p)
		}
		perFile = append(perFile, pieces)
	}
	seen := map[int]bool{}
	var wanted []int
	push := func(p int) {
		if !seen[p] {
			seen[p] = true
			wanted = append(wanted, p)
		}
	}
	switch cfg.Policy {
	case PolicySequential:
		// File order: finish file k before touching file k+1 (CMFSD).
		for _, pieces := range perFile {
			for _, p := range pieces {
				push(p)
			}
		}
	default:
		// Round-robin across files: all requested files progress together
		// (MFCD's "download the chunks randomly" up to determinism).
		for i := 0; ; i++ {
			advanced := false
			for _, pieces := range perFile {
				if i < len(pieces) {
					push(pieces[i])
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}
	}
	h, err := cfg.Info.InfoHash()
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:      cfg,
		infoHash: h,
		wanted:   wanted,
		conns:    map[*conn]struct{}{},
		done:     make(chan struct{}),
	}
	if c.complete() {
		close(c.done)
	}
	return c, nil
}

// complete reports whether every wanted piece is held.
func (c *Client) complete() bool {
	for _, p := range c.wanted {
		if !c.cfg.Store.Has(p) {
			return false
		}
	}
	return true
}

// Done is closed once every requested file is fully downloaded and
// verified. A seed's Done is closed immediately.
func (c *Client) Done() <-chan struct{} { return c.done }

// Errors returns connection errors collected so far (excluding clean EOFs
// after completion).
func (c *Client) Errors() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

// Close terminates all connections.
func (c *Client) Close() {
	c.mu.Lock()
	conns := make([]*conn, 0, len(c.conns))
	for pc := range c.conns {
		conns = append(conns, pc)
	}
	c.mu.Unlock()
	for _, pc := range conns {
		pc.close()
	}
}

// AddConn performs the handshake on nc and starts the protocol loops.
// The handshake is written and read concurrently, so either side of a
// symmetric pipe can call AddConn.
func (c *Client) AddConn(nc net.Conn) error {
	writeErr := make(chan error, 1)
	go func() {
		writeErr <- wire.WriteHandshake(nc, wire.Handshake{InfoHash: c.infoHash, PeerID: c.cfg.PeerID})
	}()
	theirs, err := wire.ReadHandshake(nc)
	if err != nil {
		nc.Close()
		return err
	}
	if err := <-writeErr; err != nil {
		nc.Close()
		return err
	}
	if theirs.InfoHash != c.infoHash {
		nc.Close()
		return fmt.Errorf("client: info-hash mismatch")
	}
	pc := &conn{
		c:  c,
		nc: nc,
		// The queue must absorb a whole torrent's worth of traffic so
		// that two peers' read loops can never deadlock on each other's
		// unbuffered (net.Pipe) writes.
		out:           make(chan *wire.Message, 4*c.cfg.Info.NumPieces()+64),
		quit:          make(chan struct{}),
		remoteHave:    wire.NewBitfield(c.cfg.Info.NumPieces()),
		remoteChoking: true,
		inflight:      map[int]time.Time{},
	}
	c.mu.Lock()
	c.conns[pc] = struct{}{}
	c.mu.Unlock()
	go pc.writeLoop()
	if err := pc.send(&wire.Message{Type: wire.MsgBitfield, Payload: c.cfg.Store.Bitfield()}); err != nil {
		pc.close()
		return err
	}
	go pc.readLoop()
	if c.cfg.RequestTimeout > 0 {
		go pc.requestWatchdog(c.cfg.RequestTimeout)
	}
	return nil
}

// requestWatchdog re-requests pieces whose in-flight request exceeded the
// timeout. Dropping the entry is enough: the next updateInterestAndRequest
// treats the piece as unrequested and pipelines it again, on this
// connection or a faster one.
func (pc *conn) requestWatchdog(timeout time.Duration) {
	every := timeout / 4
	if every < time.Millisecond {
		every = time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-pc.quit:
			return
		case now := <-tick.C:
			pc.mu.Lock()
			expired := 0
			for p, at := range pc.inflight {
				if now.Sub(at) >= timeout {
					delete(pc.inflight, p)
					expired++
				}
			}
			pc.mu.Unlock()
			if expired > 0 {
				_ = pc.updateInterestAndRequest()
			}
		}
	}
}

// send enqueues one message for the writer goroutine.
func (pc *conn) send(msg *wire.Message) error {
	select {
	case pc.out <- msg:
		return nil
	case <-pc.quit:
		return errors.New("client: connection closed")
	}
}

// writeLoop drains the outgoing queue onto the socket.
func (pc *conn) writeLoop() {
	for {
		select {
		case msg := <-pc.out:
			if err := wire.WriteMessage(pc.nc, msg); err != nil {
				pc.fail(err)
				return
			}
		case <-pc.quit:
			return
		}
	}
}

func (pc *conn) close() {
	pc.mu.Lock()
	already := pc.closed
	pc.closed = true
	pc.mu.Unlock()
	if already {
		return
	}
	close(pc.quit)
	pc.nc.Close()
	pc.c.mu.Lock()
	delete(pc.c.conns, pc)
	rest := make([]*conn, 0, len(pc.c.conns))
	for other := range pc.c.conns {
		rest = append(rest, other)
	}
	pc.c.mu.Unlock()
	// Pieces that were in flight on this connection are lost; kick the
	// surviving connections so they re-request instead of stalling until
	// the next unrelated event.
	for _, other := range rest {
		go func(o *conn) { _ = o.updateInterestAndRequest() }(other)
	}
}

// readLoop dispatches incoming messages until the connection dies.
func (pc *conn) readLoop() {
	for {
		msg, err := wire.ReadMessage(pc.nc)
		if err != nil {
			pc.fail(err)
			return
		}
		if msg == nil { // keep-alive
			continue
		}
		if err := pc.handle(msg); err != nil {
			pc.fail(err)
			return
		}
	}
}

// fail records an abnormal termination (clean shutdowns after completion
// are not interesting) and closes the connection.
func (pc *conn) fail(err error) {
	pc.mu.Lock()
	closed := pc.closed
	pc.mu.Unlock()
	if !closed {
		select {
		case <-pc.c.done:
			// Completed: remote hangups are expected.
		default:
			pc.c.mu.Lock()
			pc.c.errs = append(pc.c.errs, err)
			pc.c.mu.Unlock()
		}
	}
	pc.close()
}

func (pc *conn) handle(msg *wire.Message) error {
	switch msg.Type {
	case wire.MsgBitfield:
		pc.mu.Lock()
		copy(pc.remoteHave, msg.Payload)
		pc.mu.Unlock()
		return pc.updateInterestAndRequest()
	case wire.MsgHave:
		pc.mu.Lock()
		pc.remoteHave.Set(int(msg.Index))
		pc.mu.Unlock()
		return pc.updateInterestAndRequest()
	case wire.MsgInterested:
		// No choker: every interested remote is unchoked at once.
		return pc.send(&wire.Message{Type: wire.MsgUnchoke})
	case wire.MsgNotInterested:
		return nil
	case wire.MsgChoke:
		pc.mu.Lock()
		pc.remoteChoking = true
		pc.inflight = map[int]time.Time{}
		pc.mu.Unlock()
		return nil
	case wire.MsgUnchoke:
		pc.mu.Lock()
		pc.remoteChoking = false
		pc.mu.Unlock()
		return pc.updateInterestAndRequest()
	case wire.MsgRequest:
		block, err := pc.c.cfg.Store.Block(int(msg.Index), int64(msg.Begin), int64(msg.Length))
		if err != nil {
			return fmt.Errorf("client: request for %d/%d+%d: %w", msg.Index, msg.Begin, msg.Length, err)
		}
		return pc.send(&wire.Message{
			Type: wire.MsgPiece, Index: msg.Index, Begin: msg.Begin, Payload: block,
		})
	case wire.MsgPiece:
		return pc.onPiece(msg)
	case wire.MsgCancel:
		return nil // whole-piece transfers complete immediately; nothing queued
	default:
		return fmt.Errorf("client: unexpected message %v", msg.Type)
	}
}

// onPiece verifies, stores and propagates a received piece.
func (pc *conn) onPiece(msg *wire.Message) error {
	p := int(msg.Index)
	if msg.Begin != 0 || int64(len(msg.Payload)) != pc.c.cfg.Store.PieceSize(p) {
		return fmt.Errorf("client: partial piece %d (begin %d, %d bytes)", p, msg.Begin, len(msg.Payload))
	}
	if err := pc.c.cfg.Store.Put(p, msg.Payload); err != nil {
		return err
	}
	pc.mu.Lock()
	delete(pc.inflight, p)
	pc.mu.Unlock()
	// Tell every neighbor.
	pc.c.mu.Lock()
	conns := make([]*conn, 0, len(pc.c.conns))
	for other := range pc.c.conns {
		conns = append(conns, other)
	}
	complete := pc.c.complete()
	var done chan struct{}
	if complete {
		select {
		case <-pc.c.done:
		default:
			done = pc.c.done
		}
	}
	pc.c.mu.Unlock()
	if done != nil {
		close(done)
	}
	for _, other := range conns {
		// Have errors surface on that connection's own loop eventually.
		_ = other.send(&wire.Message{Type: wire.MsgHave, Index: msg.Index})
	}
	return pc.updateInterestAndRequest()
}

// nextWanted returns up to n un-held, un-requested pieces this remote can
// provide, in policy order.
func (pc *conn) nextWanted(n int) []int {
	c := pc.c
	var out []int
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, p := range c.wanted {
		if len(out) >= n {
			break
		}
		if c.cfg.Store.Has(p) || !pc.remoteHave.Has(p) {
			continue
		}
		if _, busy := pc.inflight[p]; busy {
			continue
		}
		// c.wanted is in file order, so for PolicySequential taking the
		// first missing pieces is exactly "current file first"; for
		// PolicyConcurrent the order across files is immaterial because
		// the pipeline keeps several files' pieces in flight at once.
		out = append(out, p)
	}
	return out
}

// updateInterestAndRequest advances this connection's download state
// machine: declare interest, and once unchoked keep the request pipeline
// full.
func (pc *conn) updateInterestAndRequest() error {
	c := pc.c
	want := pc.nextWanted(maxOutstanding)
	pc.mu.Lock()
	interested := len(want) > 0
	sendInterested := interested && !pc.weInterested
	pc.weInterested = interested || pc.weInterested
	choked := pc.remoteChoking
	room := maxOutstanding - len(pc.inflight)
	pc.mu.Unlock()

	if sendInterested {
		if err := pc.send(&wire.Message{Type: wire.MsgInterested}); err != nil {
			return err
		}
	}
	if choked || !interested || room <= 0 {
		return nil
	}
	if len(want) > room {
		want = want[:room]
	}
	for _, p := range want {
		pc.mu.Lock()
		if _, busy := pc.inflight[p]; busy {
			pc.mu.Unlock()
			continue
		}
		pc.inflight[p] = time.Now()
		pc.mu.Unlock()
		err := pc.send(&wire.Message{
			Type:   wire.MsgRequest,
			Index:  uint32(p),
			Length: uint32(c.cfg.Store.PieceSize(p)),
		})
		if err != nil {
			return err
		}
	}
	return nil
}
