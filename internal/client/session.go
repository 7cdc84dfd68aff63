package client

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"mfdl/internal/bencode"
)

// This file connects the peer to the paper's centralized components
// (internal/tracker): announce over HTTP, parse the bencoded peer list,
// dial the returned peers, and accept inbound connections — the complete
// client loop of Section 3.1.

// Listen accepts inbound peer connections for c on a TCP address (use
// "127.0.0.1:0" for tests) until the listener is closed. It returns the
// listener so the caller knows the bound port and can stop the loop.
func Listen(c *Client, addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			// Handshake errors surface through Errors(); a bad inbound
			// peer must not stop the accept loop.
			go func() { _ = c.AddConn(nc) }()
		}
	}()
	return ln, nil
}

// TrackerPeer is one peer returned by an announce.
type TrackerPeer struct {
	ID   string
	Addr string // host:port
}

// TrackerResponse is a parsed announce response.
type TrackerResponse struct {
	Interval             time.Duration
	Complete, Incomplete int
	Peers                []TrackerPeer
}

// announceClient is the HTTP client every announce goes through. The
// explicit timeout bounds the whole exchange (dial, request, response
// body), so a hung or half-dead tracker fails the announce instead of
// wedging the peer forever.
var announceClient = &http.Client{Timeout: 10 * time.Second}

// Announce performs one HTTP announce against trackerURL (the /announce
// endpoint) and parses the bencoded response.
func Announce(trackerURL string, infoHash, peerID [20]byte, ip string, port int, left int64, event string) (*TrackerResponse, error) {
	q := url.Values{}
	q.Set("info_hash", string(infoHash[:]))
	q.Set("peer_id", string(peerID[:]))
	q.Set("ip", ip)
	q.Set("port", fmt.Sprintf("%d", port))
	q.Set("left", fmt.Sprintf("%d", left))
	if event != "" {
		q.Set("event", event)
	}
	sep := "?"
	if strings.Contains(trackerURL, "?") {
		sep = "&"
	}
	resp, err := announceClient.Get(trackerURL + sep + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("client: tracker returned HTTP %d", resp.StatusCode)
	}
	v, err := bencode.Unmarshal(body)
	if err != nil {
		return nil, fmt.Errorf("client: tracker response: %w", err)
	}
	d, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("client: tracker response is not a dict")
	}
	if reason, ok := d["failure reason"].(string); ok {
		return nil, fmt.Errorf("client: tracker failure: %s", reason)
	}
	out := &TrackerResponse{}
	if iv, ok := d["interval"].(int64); ok {
		out.Interval = time.Duration(iv) * time.Second
	}
	if n, ok := d["complete"].(int64); ok {
		out.Complete = int(n)
	}
	if n, ok := d["incomplete"].(int64); ok {
		out.Incomplete = int(n)
	}
	switch peers := d["peers"].(type) {
	case []any:
		for _, p := range peers {
			pd, ok := p.(map[string]any)
			if !ok {
				continue
			}
			ip, _ := pd["ip"].(string)
			port, _ := pd["port"].(int64)
			id, _ := pd["peer id"].(string)
			if ip == "" || port <= 0 {
				continue
			}
			out.Peers = append(out.Peers, TrackerPeer{
				ID:   id,
				Addr: net.JoinHostPort(ip, fmt.Sprintf("%d", port)),
			})
		}
	case string:
		// BEP-23 compact form: consecutive 6-byte IPv4+port entries.
		for i := 0; i+6 <= len(peers); i += 6 {
			ip := net.IPv4(peers[i], peers[i+1], peers[i+2], peers[i+3])
			port := int(peers[i+4])<<8 | int(peers[i+5])
			if port <= 0 {
				continue
			}
			out.Peers = append(out.Peers, TrackerPeer{
				Addr: net.JoinHostPort(ip.String(), fmt.Sprintf("%d", port)),
			})
		}
	}
	return out, nil
}

// Left returns the announce "left" value: bytes still wanted (approximated
// at piece granularity, which is what trackers use it for).
func (c *Client) Left() int64 {
	var left int64
	for _, p := range c.wanted {
		if !c.cfg.Store.Has(p) {
			left += c.cfg.Store.PieceSize(p)
		}
	}
	return left
}

// Bootstrap announces to the tracker as a starting peer listening on
// ip:port and dials every peer the tracker returns. Dial failures are
// collected but do not abort the remaining peers; an error is returned
// only when the announce itself fails or no advertised peer was reachable
// while some were advertised.
func (c *Client) Bootstrap(announceURL, ip string, port int) error {
	resp, err := Announce(announceURL, c.infoHash, c.cfg.PeerID, ip, port, c.Left(), "started")
	if err != nil {
		return err
	}
	if len(resp.Peers) == 0 {
		return nil
	}
	connected := 0
	var lastErr error
	for _, p := range resp.Peers {
		nc, err := net.DialTimeout("tcp", p.Addr, 5*time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.AddConn(nc); err != nil {
			lastErr = err
			continue
		}
		connected++
	}
	if connected == 0 {
		return fmt.Errorf("client: no advertised peer reachable: %w", lastErr)
	}
	return nil
}
