package client

import (
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mfdl/internal/storage"
	"mfdl/internal/wire"
)

// evilPeer completes a raw handshake+bitfield exchange on nc, claiming to
// hold every piece, and streams every incoming message to the returned
// channel. It is the scriptable counterpart for fault-path tests.
func evilPeer(t *testing.T, nc net.Conn, infoHash [20]byte, numPieces int) <-chan *wire.Message {
	t.Helper()
	writeErr := make(chan error, 1)
	go func() {
		writeErr <- wire.WriteHandshake(nc, wire.Handshake{InfoHash: infoHash, PeerID: [20]byte{'e', 'v', 'i', 'l'}})
	}()
	if _, err := wire.ReadHandshake(nc); err != nil {
		t.Fatalf("evil handshake read: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("evil handshake write: %v", err)
	}
	all := wire.NewBitfield(numPieces)
	for i := 0; i < numPieces; i++ {
		all.Set(i)
	}
	if err := wire.WriteMessage(nc, &wire.Message{Type: wire.MsgBitfield, Payload: all}); err != nil {
		t.Fatalf("evil bitfield: %v", err)
	}
	msgs := make(chan *wire.Message, 256)
	go func() {
		defer close(msgs)
		for {
			msg, err := wire.ReadMessage(nc)
			if err != nil {
				return
			}
			if msg != nil {
				msgs <- msg
			}
		}
	}()
	return msgs
}

// waitRequest drains msgs until the first piece request (answering
// interest with an unchoke along the way) or the timeout.
func waitRequest(t *testing.T, nc net.Conn, msgs <-chan *wire.Message, within time.Duration) *wire.Message {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case msg, ok := <-msgs:
			if !ok {
				t.Fatal("evil peer connection died before a request arrived")
			}
			switch msg.Type {
			case wire.MsgInterested:
				if err := wire.WriteMessage(nc, &wire.Message{Type: wire.MsgUnchoke}); err != nil {
					t.Fatalf("evil unchoke: %v", err)
				}
			case wire.MsgRequest:
				return msg
			}
		case <-deadline:
			t.Fatalf("no piece request within %v", within)
		}
	}
}

// TestDisconnectMidPieceSurfacesError is the peer-churn robustness
// contract: a remote that dies mid-message (length prefix written, body
// never completed) must surface an error on the client and release the
// outstanding requests — the download then completes through another
// peer instead of deadlocking on requests that can never be answered.
func TestDisconnectMidPieceSurfacesError(t *testing.T) {
	m, data := torrent(t, 2, 2048, 512)
	leech := leechClient(t, m, PolicySequential, nil, 'v')
	defer leech.Close()

	ours, theirs := net.Pipe()
	attach := make(chan error, 1)
	go func() { attach <- leech.AddConn(ours) }()
	msgs := evilPeer(t, theirs, leech.infoHash, m.Info.NumPieces())
	if err := <-attach; err != nil {
		t.Fatal(err)
	}
	_ = waitRequest(t, theirs, msgs, 5*time.Second)

	// Truncate mid-piece: a 13-byte frame is promised, 5 bytes arrive,
	// then the wire goes dead.
	if err := binary.Write(theirs, binary.BigEndian, uint32(13)); err != nil {
		t.Fatal(err)
	}
	if _, err := theirs.Write([]byte{byte(wire.MsgPiece), 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	theirs.Close()

	deadline := time.Now().Add(5 * time.Second)
	for len(leech.Errors()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("truncated message never surfaced as an error")
		}
		time.Sleep(time.Millisecond)
	}

	// The failed connection's in-flight pieces must be free again: a
	// fresh seed connection has to finish the whole download.
	seed := seedClient(t, m, data)
	defer seed.Close()
	if err := Connect(leech, seed); err != nil {
		t.Fatal(err)
	}
	waitDone(t, leech, 10*time.Second)
}

// TestRequestWatchdogRerequests: against a black-hole peer that accepts
// requests and never answers, the request-timeout watchdog must drop the
// stale in-flight entries and pipeline the pieces again.
func TestRequestWatchdogRerequests(t *testing.T) {
	m, _ := torrent(t, 1, 2048, 512)
	st, err := storage.New(&m.Info)
	if err != nil {
		t.Fatal(err)
	}
	leech, err := New(Config{
		Info: &m.Info, Store: st, PeerID: [20]byte{'w'},
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leech.Close()

	ours, theirs := net.Pipe()
	attach := make(chan error, 1)
	go func() { attach <- leech.AddConn(ours) }()
	msgs := evilPeer(t, theirs, leech.infoHash, m.Info.NumPieces())
	if err := <-attach; err != nil {
		t.Fatal(err)
	}

	seen := map[uint32]int{}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case msg, ok := <-msgs:
			if !ok {
				t.Fatal("black-hole connection died")
			}
			switch msg.Type {
			case wire.MsgInterested:
				if err := wire.WriteMessage(theirs, &wire.Message{Type: wire.MsgUnchoke}); err != nil {
					t.Fatal(err)
				}
			case wire.MsgRequest:
				seen[msg.Index]++
				if seen[msg.Index] >= 2 {
					return // timed-out request was re-pipelined
				}
			}
		case <-deadline:
			t.Fatalf("no piece re-requested after timeout (seen %v)", seen)
		}
	}
}

// TestRemoteChokeBlocksRequests: against a remote that holds every piece
// but never unchokes, the client declares interest and then waits — it
// must never send a request while choked.
func TestRemoteChokeBlocksRequests(t *testing.T) {
	m, _ := torrent(t, 1, 1024, 256)
	leech := leechClient(t, m, PolicySequential, nil, 'z')
	defer leech.Close()

	ours, theirs := net.Pipe()
	attach := make(chan error, 1)
	go func() { attach <- leech.AddConn(ours) }()
	msgs := evilPeer(t, theirs, leech.infoHash, m.Info.NumPieces())
	if err := <-attach; err != nil {
		t.Fatal(err)
	}

	interested := false
	quiet := time.After(300 * time.Millisecond)
	for {
		select {
		case msg, ok := <-msgs:
			if !ok {
				t.Fatal("choked connection died")
			}
			switch msg.Type {
			case wire.MsgInterested:
				interested = true
			case wire.MsgRequest:
				t.Fatalf("request for piece %d while choked", msg.Index)
			}
		case <-quiet:
			if !interested {
				t.Fatal("client never declared interest in a full remote")
			}
			if n := held(leech); n != 0 {
				t.Fatalf("%d pieces arrived over a choked connection", n)
			}
			return
		}
	}
}

// TestAnnounceSurfacesHTTPStatus: a tracker behind a broken proxy answers
// with an HTTP error; Announce must fail and name the status.
func TestAnnounceSurfacesHTTPStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer srv.Close()
	_, err := Announce(srv.URL, [20]byte{1}, [20]byte{2}, "127.0.0.1", 6881, 1, "started")
	if err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("err = %v, want an error naming HTTP 502", err)
	}
}
