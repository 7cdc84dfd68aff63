// Mini-swarm: real bytes over the real protocol, found through a real
// tracker. A seed and three peers exchange a 6-file torrent: each peer
// listens on TCP, announces to an in-process HTTP tracker, and dials the
// peers it returns (the paper's Section 3.1 loop); pieces move over the
// wire protocol (handshake, bitfield, request/piece with SHA-1
// verification) — no simulation:
//
//   - "alice" downloads sequentially (CMFSD's download side),
//   - "bob" downloads concurrently (MFCD, stock client behaviour),
//   - "carol" arrives after the seed has announced "stopped", so the
//     tracker hands her only alice and bob — she can complete because a
//     sequential downloader holds complete files early and serves them,
//     which is exactly the partial-seed behaviour the paper's CMFSD
//     exploits.
//
// Run with:
//
//	go run ./examples/miniswarm
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http/httptest"
	"os"
	"time"

	"mfdl/internal/client"
	"mfdl/internal/metainfo"
	"mfdl/internal/rng"
	"mfdl/internal/storage"
	"mfdl/internal/tracker"
)

const (
	episodes = 6
	fileSize = 8 << 10
	pieceLen = 2 << 10
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// peer is one swarm member listening on a loopback port.
type peer struct {
	name string
	id   [20]byte
	c    *client.Client
	ln   net.Listener
}

func (p *peer) port() int { return p.ln.Addr().(*net.TCPAddr).Port }

func run(w io.Writer) error {
	// Publisher: synthesize a season, hash it into a torrent and publish
	// it on the tracker.
	src := rng.New(7)
	content := make([]byte, episodes*fileSize)
	for i := range content {
		content[i] = byte(src.Uint32())
	}
	files := make([]metainfo.FileEntry, episodes)
	for i := range files {
		files[i] = metainfo.FileEntry{Path: fmt.Sprintf("season/e%02d.mkv", i+1), Length: fileSize}
	}
	meta, err := metainfo.Build("season", "/announce", pieceLen, files, metainfo.BytesSource(content))
	if err != nil {
		return err
	}
	reg := tracker.NewRegistry(1)
	hash, err := reg.Publish(meta)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(tracker.Handler(reg))
	defer srv.Close()
	announce := srv.URL + "/announce"
	fmt.Fprintf(w, "torrent: %d files, %d pieces, info-hash %x…\n\n",
		episodes, meta.Info.NumPieces(), hash[:4])

	var peers []*peer
	defer func() {
		for _, p := range peers {
			p.ln.Close()
			p.c.Close()
		}
	}()
	join := func(name string, full []byte, policy client.Policy) (*peer, error) {
		st, err := storage.New(&meta.Info)
		if full != nil {
			st, err = storage.NewSeeded(&meta.Info, metainfo.BytesSource(full))
		}
		if err != nil {
			return nil, err
		}
		p := &peer{name: name}
		copy(p.id[:], name)
		if p.c, err = client.New(client.Config{Info: &meta.Info, Store: st, PeerID: p.id, Policy: policy}); err != nil {
			return nil, err
		}
		if p.ln, err = client.Listen(p.c, "127.0.0.1:0"); err != nil {
			return nil, err
		}
		peers = append(peers, p)
		return p, p.c.Bootstrap(announce, "127.0.0.1", p.port())
	}

	start := time.Now()
	seed, err := join("seed", content, client.PolicySequential)
	if err != nil {
		return err
	}
	alice, err := join("alice", nil, client.PolicySequential)
	if err != nil {
		return err
	}
	bob, err := join("bob", nil, client.PolicyConcurrent)
	if err != nil {
		return err
	}
	// The seed leaves the tracker's peer list but keeps serving the
	// connections it has: carol never learns its address.
	if _, err := client.Announce(announce, hash, seed.id, "127.0.0.1", seed.port(), 0, "stopped"); err != nil {
		return err
	}
	carol, err := join("carol", nil, client.PolicySequential)
	if err != nil {
		return err
	}

	for _, p := range []*peer{alice, bob, carol} {
		select {
		case <-p.c.Done():
			fmt.Fprintf(w, "%-6s complete and verified after %v\n", p.name, time.Since(start).Round(time.Millisecond))
		case <-time.After(30 * time.Second):
			return fmt.Errorf("%s stalled: %v", p.name, p.c.Errors())
		}
	}
	for _, p := range peers {
		if errs := p.c.Errors(); len(errs) > 0 {
			return fmt.Errorf("%s: connection errors: %v", p.name, errs)
		}
	}

	fmt.Fprintln(w, "\ncarol completed without ever contacting the seed: the tracker")
	fmt.Fprintln(w, "gave her only alice and bob, and alice's sequentially-finished")
	fmt.Fprintln(w, "episodes made her a usable partial seed — the mechanism CMFSD's")
	fmt.Fprintln(w, "collaboration is built on.")
	return nil
}
