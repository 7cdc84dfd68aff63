package tracker

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"mfdl/internal/bencode"
	"mfdl/internal/metainfo"
)

func newServer(t *testing.T) (*httptest.Server, *Registry, InfoHash) {
	t.Helper()
	r := NewRegistry(1)
	h := publishTestTorrent(t, r, "season")
	srv := httptest.NewServer(Handler(r))
	t.Cleanup(srv.Close)
	return srv, r, h
}

func get(t *testing.T, rawURL string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func announceURL(srv *httptest.Server, h InfoHash, id string, left, event string) string {
	q := url.Values{}
	q.Set("info_hash", string(h[:])) // binary form, URL-encoded by Values
	q.Set("peer_id", id)
	q.Set("port", "6881")
	q.Set("left", left)
	if event != "" {
		q.Set("event", event)
	}
	return srv.URL + "/announce?" + q.Encode()
}

func TestHTTPAnnounce(t *testing.T) {
	srv, _, h := newServer(t)
	code, body := get(t, announceURL(srv, h, "peerA", "600", "started"))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	v, err := bencode.Unmarshal(body)
	if err != nil {
		t.Fatalf("response not bencoded: %v\n%s", err, body)
	}
	d := v.(map[string]any)
	if d["incomplete"].(int64) != 1 || d["complete"].(int64) != 0 {
		t.Fatalf("counts wrong: %v", d)
	}
	if d["interval"].(int64) <= 0 {
		t.Fatal("no interval")
	}

	// Second peer sees the first.
	_, body = get(t, announceURL(srv, h, "peerB", "600", "started"))
	v, err = bencode.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	peers := v.(map[string]any)["peers"].([]any)
	if len(peers) != 1 {
		t.Fatalf("peer list %v", peers)
	}
	p := peers[0].(map[string]any)
	if p["peer id"].(string) != "peerA" || p["port"].(int64) != 6881 {
		t.Fatalf("peer entry %v", p)
	}
}

func TestHTTPAnnounceHexHash(t *testing.T) {
	srv, _, h := newServer(t)
	u := srv.URL + "/announce?info_hash=" + HexHash(h) + "&peer_id=x&port=1&left=0"
	_, body := get(t, u)
	if strings.Contains(string(body), "failure") {
		t.Fatalf("hex hash rejected: %s", body)
	}
}

func TestHTTPAnnounceFailures(t *testing.T) {
	srv, _, h := newServer(t)
	cases := []string{
		srv.URL + "/announce?info_hash=short&peer_id=x&port=1",
		srv.URL + "/announce?info_hash=" + HexHash(h) + "&peer_id=x&port=bad",
		srv.URL + "/announce?info_hash=" + HexHash(h) + "&peer_id=x&port=1&event=exploded",
		srv.URL + "/announce?info_hash=" + HexHash(h) + "&peer_id=x&port=1&left=xyz",
		srv.URL + "/announce?info_hash=" + HexHash(h) + "&peer_id=x&port=1&numwant=xyz",
		srv.URL + "/announce?info_hash=" + strings.Repeat("00", 20) + "&peer_id=x&port=1",
	}
	for i, u := range cases {
		code, body := get(t, u)
		if code != http.StatusOK {
			t.Fatalf("case %d: status %d (failures use 200 + failure reason)", i, code)
		}
		v, err := bencode.Unmarshal(body)
		if err != nil {
			t.Fatalf("case %d: response not bencoded: %s", i, body)
		}
		if _, ok := v.(map[string]any)["failure reason"]; !ok {
			t.Fatalf("case %d: no failure reason: %s", i, body)
		}
	}
}

func TestHTTPScrapeAndIndex(t *testing.T) {
	srv, _, h := newServer(t)
	get(t, announceURL(srv, h, "peerA", "0", "completed"))

	_, body := get(t, srv.URL+"/scrape")
	v, err := bencode.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	files := v.(map[string]any)["files"].(map[string]any)
	entry, ok := files[string(h[:])].(map[string]any)
	if !ok {
		t.Fatalf("scrape missing torrent: %v", files)
	}
	if entry["complete"].(int64) != 1 || entry["downloaded"].(int64) != 1 {
		t.Fatalf("scrape stats %v", entry)
	}

	code, idx := get(t, srv.URL+"/index")
	if code != http.StatusOK || !strings.Contains(string(idx), "season") {
		t.Fatalf("index:\n%s", idx)
	}
	if !strings.Contains(string(idx), HexHash(h)) {
		t.Fatal("index missing info-hash")
	}
}

func TestHTTPTorrentDownload(t *testing.T) {
	srv, reg, h := newServer(t)
	code, body := get(t, srv.URL+"/torrent/"+HexHash(h))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	m, err := metainfo.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reg.Torrent(h)
	gotHash, _ := m.Info.InfoHash()
	wantHash, _ := want.Info.InfoHash()
	if gotHash != wantHash {
		t.Fatal("served torrent has different identity")
	}

	if code, _ := get(t, srv.URL+"/torrent/nothex"); code != http.StatusBadRequest {
		t.Fatalf("bad hash status %d", code)
	}
	if code, _ := get(t, srv.URL+"/torrent/"+strings.Repeat("00", 20)); code != http.StatusNotFound {
		t.Fatalf("unknown hash status %d", code)
	}
}

func TestHTTPFullClientFlow(t *testing.T) {
	// The complete §3.1 loop: browse the index, fetch the metadata,
	// announce, get peers.
	srv, _, h := newServer(t)
	_, idx := get(t, srv.URL+"/index")
	line := ""
	for _, l := range strings.Split(string(idx), "\n") {
		if strings.Contains(l, "season") {
			line = l
		}
	}
	if line == "" {
		t.Fatal("torrent not on index")
	}
	fields := strings.Fields(line)
	hexHash := fields[1]
	if hexHash != HexHash(h) {
		t.Fatalf("index hash %s", hexHash)
	}
	_, torrentBytes := get(t, srv.URL+"/torrent/"+hexHash)
	m, err := metainfo.Unmarshal(torrentBytes)
	if err != nil {
		t.Fatal(err)
	}
	parsedHash, _ := m.Info.InfoHash()
	_, body := get(t, announceURL(srv, parsedHash, "newcomer", "600", "started"))
	if strings.Contains(string(body), "failure") {
		t.Fatalf("announce after metadata fetch failed: %s", body)
	}
}

func TestHTTPCompactAnnounce(t *testing.T) {
	srv, _, h := newServer(t)
	// Two peers with IPv4 addresses, one with an unparseable address, and
	// one with no ip parameter: the tracker takes the host of its
	// connection's remote address, without the port.
	for _, p := range []struct{ id, ip, port string }{
		{"p1", "10.0.0.1", "6881"},
		{"p2", "10.0.0.2", "6882"},
		{"p3", "not-an-ip", "6883"},
		{"p4", "", "6884"},
	} {
		q := url.Values{}
		q.Set("info_hash", string(h[:]))
		q.Set("peer_id", p.id)
		if p.ip != "" {
			q.Set("ip", p.ip)
		}
		q.Set("port", p.port)
		q.Set("left", "100")
		get(t, srv.URL+"/announce?"+q.Encode())
	}
	q := url.Values{}
	q.Set("info_hash", string(h[:]))
	q.Set("peer_id", "me")
	q.Set("ip", "10.0.0.9")
	q.Set("port", "7000")
	q.Set("left", "100")
	q.Set("compact", "1")
	_, body := get(t, srv.URL+"/announce?"+q.Encode())
	v, err := bencode.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	packed, ok := v.(map[string]any)["peers"].(string)
	if !ok {
		t.Fatalf("compact peers not a string: %T", v.(map[string]any)["peers"])
	}
	if len(packed) != 18 { // 3 parseable peers
		t.Fatalf("packed length %d, want 18", len(packed))
	}
	// Every entry decodes back to an IP:port we announced.
	got := map[string]bool{}
	for i := 0; i < len(packed); i += 6 {
		ip := net.IPv4(packed[i], packed[i+1], packed[i+2], packed[i+3]).String()
		port := int(packed[i+4])<<8 | int(packed[i+5])
		got[fmt.Sprintf("%s:%d", ip, port)] = true
	}
	for _, want := range []string{"10.0.0.1:6881", "10.0.0.2:6882", "127.0.0.1:6884"} {
		if !got[want] {
			t.Fatalf("decoded %v, missing %s", got, want)
		}
	}
}
