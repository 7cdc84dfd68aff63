package tracker

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"mfdl/internal/bencode"
	"mfdl/internal/obs"
)

// Handler exposes the registry over HTTP with BEP-3-style endpoints:
//
//	GET /announce?info_hash=..&peer_id=..&port=..&left=..&event=..
//	GET /scrape[?info_hash=..]
//	GET /index                     human-readable torrent listing
//	GET /torrent/<hex info-hash>   the bencoded .torrent file
//
// Announce and scrape respond with bencoded dictionaries; errors use the
// standard "failure reason" key with HTTP 200, as real clients expect.
func Handler(r *Registry) http.Handler { return ObservedHandler(r, nil) }

// ObservedHandler is Handler instrumented against ob: every endpoint
// counts requests in tracker_requests_total{endpoint=...} and samples
// latency into tracker_request_seconds{endpoint=...}, and the registry
// itself is served at /metrics in Prometheus text format. A nil ob
// yields the plain uninstrumented handler (no /metrics endpoint).
func ObservedHandler(r *Registry, ob *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(ob, endpoint, h))
	}
	if ob != nil {
		mux.Handle("/metrics", obs.HTTPHandler(ob))
	}
	handle("/announce", "announce", func(w http.ResponseWriter, req *http.Request) {
		resp, err := announceFromQuery(r, req)
		if err != nil {
			writeBencoded(w, map[string]any{"failure reason": err.Error()})
			return
		}
		out := map[string]any{
			"interval":   int64(resp.Interval.Seconds()),
			"complete":   int64(resp.Complete),
			"incomplete": int64(resp.Incomplete),
		}
		if req.URL.Query().Get("compact") == "1" {
			// BEP-23: packed 6-byte (IPv4 + port) entries; peers without a
			// parseable IPv4 address are omitted, as real trackers do.
			var packed []byte
			for _, p := range resp.Peers {
				ip4 := net.ParseIP(p.IP).To4()
				if ip4 == nil {
					continue
				}
				packed = append(packed, ip4...)
				packed = append(packed, byte(p.Port>>8), byte(p.Port))
			}
			out["peers"] = string(packed)
		} else {
			peers := make([]any, 0, len(resp.Peers))
			for _, p := range resp.Peers {
				peers = append(peers, map[string]any{
					"peer id": p.ID,
					"ip":      p.IP,
					"port":    int64(p.Port),
				})
			}
			out["peers"] = peers
		}
		writeBencoded(w, out)
	})
	handle("/scrape", "scrape", func(w http.ResponseWriter, req *http.Request) {
		var hashes []InfoHash
		for _, raw := range req.URL.Query()["info_hash"] {
			h, err := hashFromRaw(raw)
			if err != nil {
				writeBencoded(w, map[string]any{"failure reason": err.Error()})
				return
			}
			hashes = append(hashes, h)
		}
		files := map[string]any{}
		for _, e := range r.Scrape(hashes...) {
			files[string(e.InfoHash[:])] = map[string]any{
				"complete":   int64(e.Complete),
				"incomplete": int64(e.Incomplete),
				"downloaded": int64(e.Downloaded),
				"name":       e.Name,
			}
		}
		writeBencoded(w, map[string]any{"files": files})
	})
	handle("/index", "index", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-20s %-42s %8s %12s %10s\n", "name", "info-hash", "seeds", "downloaders", "downloads")
		for _, e := range r.Scrape() {
			fmt.Fprintf(w, "%-20s %-42s %8d %12d %10d\n",
				e.Name, HexHash(e.InfoHash), e.Complete, e.Incomplete, e.Downloaded)
		}
	})
	handle("/torrent/", "torrent", func(w http.ResponseWriter, req *http.Request) {
		hexHash := req.URL.Path[len("/torrent/"):]
		h, err := ParseHexHash(hexHash)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m, err := r.Torrent(h)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		data, err := m.Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-bittorrent")
		_, _ = w.Write(data)
	})
	return mux
}

// instrument wraps an endpoint handler with a request counter and a
// latency histogram; with a nil registry the handler is returned as-is,
// so the uninstrumented path has zero per-request overhead.
func instrument(ob *obs.Registry, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if ob == nil {
		return h
	}
	requests := ob.Counter("tracker_requests_total", obs.L("endpoint", endpoint))
	latency := ob.Histogram("tracker_request_seconds", obs.LatencyBuckets, obs.L("endpoint", endpoint))
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h(w, req)
		requests.Inc()
		latency.Since(start)
	}
}

// announceFromQuery decodes an announce request from URL parameters.
func announceFromQuery(r *Registry, req *http.Request) (*AnnounceResponse, error) {
	q := req.URL.Query()
	h, err := hashFromRaw(q.Get("info_hash"))
	if err != nil {
		return nil, err
	}
	port, err := strconv.Atoi(q.Get("port"))
	if err != nil {
		return nil, fmt.Errorf("bad port %q", q.Get("port"))
	}
	left := int64(0)
	if s := q.Get("left"); s != "" {
		left, err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad left %q", s)
		}
	}
	event, err := ParseEvent(q.Get("event"))
	if err != nil {
		return nil, err
	}
	numWant := 0
	if s := q.Get("numwant"); s != "" {
		numWant, err = strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad numwant %q", s)
		}
	}
	ip := q.Get("ip")
	if ip == "" { // the connection's host; its source port is not the peer's
		ip, _, _ = net.SplitHostPort(req.RemoteAddr)
	}
	return r.Announce(AnnounceRequest{
		InfoHash: h,
		PeerID:   q.Get("peer_id"),
		IP:       ip,
		Port:     port,
		Left:     left,
		Event:    event,
		NumWant:  numWant,
	})
}

// hashFromRaw accepts either the raw 20-byte binary form (as URL-decoded by
// net/url) or 40 hex characters.
func hashFromRaw(raw string) (InfoHash, error) {
	var h InfoHash
	switch len(raw) {
	case 20:
		copy(h[:], raw)
		return h, nil
	case 40:
		return ParseHexHash(raw)
	default:
		return h, fmt.Errorf("bad info_hash length %d", len(raw))
	}
}

func writeBencoded(w http.ResponseWriter, v map[string]any) {
	data, err := bencode.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=iso-8859-1")
	_, _ = w.Write(data)
}
