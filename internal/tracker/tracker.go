// Package tracker implements the two centralized components of the paper's
// server–torrent architecture (Section 3.1, Figure 1): the tracker, which
// coordinates each torrent's swarm through announce/scrape, and the web
// server, which indexes published torrents and hands out their metadata.
// Both are in-process Go services with an HTTP front end (BEP-3 style,
// bencoded responses) so they can be run standalone (cmd/trackerd) or
// embedded in simulations and tests.
package tracker

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mfdl/internal/metainfo"
	"mfdl/internal/rng"
)

// InfoHash identifies a torrent.
type InfoHash = [sha1.Size]byte

// Event is the announce event.
type Event int

// Announce events per BEP-3.
const (
	// EventNone is a periodic keep-alive announce.
	EventNone Event = iota
	// EventStarted announces a new peer.
	EventStarted
	// EventCompleted marks the transition from downloader to seed.
	EventCompleted
	// EventStopped removes the peer.
	EventStopped
)

// ParseEvent maps the wire strings ("", "started", "completed", "stopped").
func ParseEvent(s string) (Event, error) {
	switch s {
	case "":
		return EventNone, nil
	case "started":
		return EventStarted, nil
	case "completed":
		return EventCompleted, nil
	case "stopped":
		return EventStopped, nil
	default:
		return EventNone, fmt.Errorf("tracker: unknown event %q", s)
	}
}

// PeerInfo is one swarm member as returned to announcers.
type PeerInfo struct {
	ID   string
	IP   string
	Port int
	// Seed reports whether the peer has completed the download.
	Seed bool
}

// AnnounceRequest is one tracker announce.
type AnnounceRequest struct {
	InfoHash InfoHash
	PeerID   string
	IP       string
	Port     int
	Left     int64
	Event    Event
	// NumWant caps the returned peer list (default 50).
	NumWant int
}

// AnnounceResponse is the tracker's reply.
type AnnounceResponse struct {
	// Interval is the requested re-announce interval.
	Interval time.Duration
	// Complete and Incomplete are the seed and downloader counts — the
	// numbers the paper says users read off the index before joining.
	Complete, Incomplete int
	Peers                []PeerInfo
}

type peerEntry struct {
	info     PeerInfo
	lastSeen time.Time
}

type swarm struct {
	meta  *metainfo.MetaInfo
	peers map[string]*peerEntry
	// downloadsCompleted counts EventCompleted announces for the index.
	downloadsCompleted int
}

// Registry is the in-memory tracker + index state. Safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	swarms map[InfoHash]*swarm
	rng    *rng.Source
	// Interval is handed to announcers; a peer silent for 2×Interval is
	// pruned lazily.
	Interval time.Duration
	// Now is the clock (replaceable in tests).
	Now func() time.Time
}

// NewRegistry returns an empty registry with a 30-minute announce interval.
func NewRegistry(seed uint64) *Registry {
	return &Registry{
		swarms:   map[InfoHash]*swarm{},
		rng:      rng.New(seed),
		Interval: 30 * time.Minute,
		Now:      time.Now,
	}
}

// ErrUnknownTorrent is returned for announces against unpublished torrents.
var ErrUnknownTorrent = errors.New("tracker: unknown info-hash")

// Publish registers a torrent (the web-server upload step). Re-publishing
// the same info-hash is idempotent.
func (r *Registry) Publish(m *metainfo.MetaInfo) (InfoHash, error) {
	if m == nil {
		return InfoHash{}, errors.New("tracker: nil metainfo")
	}
	if err := m.Info.Validate(); err != nil {
		return InfoHash{}, err
	}
	h, err := m.Info.InfoHash()
	if err != nil {
		return InfoHash{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.swarms[h]; !ok {
		r.swarms[h] = &swarm{meta: m, peers: map[string]*peerEntry{}}
	}
	return h, nil
}

// Torrent returns the metadata for an info-hash (the web-server download
// step).
func (r *Registry) Torrent(h InfoHash) (*metainfo.MetaInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sw, ok := r.swarms[h]
	if !ok {
		return nil, ErrUnknownTorrent
	}
	return sw.meta, nil
}

// Announce processes one announce and returns a random peer sample.
func (r *Registry) Announce(req AnnounceRequest) (*AnnounceResponse, error) {
	if req.PeerID == "" {
		return nil, errors.New("tracker: empty peer id")
	}
	if req.Port <= 0 || req.Port > 65535 {
		return nil, fmt.Errorf("tracker: invalid port %d", req.Port)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sw, ok := r.swarms[req.InfoHash]
	if !ok {
		return nil, ErrUnknownTorrent
	}
	now := r.Now()
	r.prune(sw, now)
	switch req.Event {
	case EventStopped:
		delete(sw.peers, req.PeerID)
	case EventCompleted:
		sw.downloadsCompleted++
		fallthrough
	default:
		e, ok := sw.peers[req.PeerID]
		if !ok {
			e = &peerEntry{}
			sw.peers[req.PeerID] = e
		}
		e.info = PeerInfo{ID: req.PeerID, IP: req.IP, Port: req.Port, Seed: req.Left == 0}
		e.lastSeen = now
	}
	resp := &AnnounceResponse{Interval: r.Interval}
	others := make([]PeerInfo, 0, len(sw.peers))
	for id, e := range sw.peers {
		if e.info.Seed {
			resp.Complete++
		} else {
			resp.Incomplete++
		}
		if id != req.PeerID {
			others = append(others, e.info)
		}
	}
	// Deterministic order before sampling so results depend only on the
	// registry's RNG stream.
	sort.Slice(others, func(i, j int) bool { return others[i].ID < others[j].ID })
	want := req.NumWant
	if want <= 0 || want > 50 {
		want = 50
	}
	if want > len(others) {
		want = len(others)
	}
	rng.ShuffleSlice(r.rng, others)
	resp.Peers = others[:want]
	return resp, nil
}

// prune drops peers not seen for two intervals. Caller holds the lock.
func (r *Registry) prune(sw *swarm, now time.Time) {
	deadline := now.Add(-2 * r.Interval)
	for id, e := range sw.peers {
		if e.lastSeen.Before(deadline) {
			delete(sw.peers, id)
		}
	}
}

// ScrapeEntry summarizes one swarm.
type ScrapeEntry struct {
	Name                 string
	InfoHash             InfoHash
	Complete, Incomplete int
	Downloaded           int
}

// Scrape returns summaries for the requested hashes (all when empty) in
// name order — the index listing a user consults before entering torrents.
func (r *Registry) Scrape(hashes ...InfoHash) []ScrapeEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.Now()
	var out []ScrapeEntry
	include := func(h InfoHash) bool {
		if len(hashes) == 0 {
			return true
		}
		for _, want := range hashes {
			if want == h {
				return true
			}
		}
		return false
	}
	for h, sw := range r.swarms {
		if !include(h) {
			continue
		}
		r.prune(sw, now)
		e := ScrapeEntry{Name: sw.meta.Info.Name, InfoHash: h, Downloaded: sw.downloadsCompleted}
		for _, pe := range sw.peers {
			if pe.info.Seed {
				e.Complete++
			} else {
				e.Incomplete++
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HexHash renders an info-hash as lowercase hex.
func HexHash(h InfoHash) string { return hex.EncodeToString(h[:]) }

// ParseHexHash parses a 40-character hex info-hash.
func ParseHexHash(s string) (InfoHash, error) {
	var h InfoHash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha1.Size {
		return h, fmt.Errorf("tracker: bad info-hash %q", s)
	}
	copy(h[:], b)
	return h, nil
}
