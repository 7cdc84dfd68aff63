// Server–torrent walkthrough: the full deployment loop of the paper's
// Section 3.1 (Figure 1), in one process with a real HTTP boundary.
//
//  1. A publisher builds a multi-file .torrent (10 synthetic episodes) and
//     uploads it to the indexing web server / tracker.
//  2. A user browses the index, downloads the metadata, verifies its
//     info-hash, and announces into the swarm.
//  3. More peers join and complete; the index reflects the swarm state.
//  4. The user consults the fluid models to pick a downloading scheme for
//     exactly this torrent.
//
// Run with:
//
//	go run ./examples/servertorrent
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"mfdl/internal/client"
	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metainfo"
	"mfdl/internal/rng"
	"mfdl/internal/scheme"
	"mfdl/internal/tracker"
)

func main() {
	// --- publisher side -------------------------------------------------
	const episodes = 10
	src := rng.New(42)
	content := make([]byte, episodes*4096)
	for i := range content {
		content[i] = byte(src.Uint32())
	}
	files := make([]metainfo.FileEntry, episodes)
	for i := range files {
		files[i] = metainfo.FileEntry{Path: fmt.Sprintf("season/e%02d.mkv", i+1), Length: 4096}
	}
	meta, err := metainfo.Build("season", "/announce", 1024, files, metainfo.BytesSource(content))
	if err != nil {
		log.Fatal(err)
	}

	reg := tracker.NewRegistry(1)
	infoHash, err := reg.Publish(meta)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(tracker.Handler(reg))
	defer srv.Close()
	fmt.Printf("publisher: %d-episode season published, info-hash %s\n",
		episodes, tracker.HexHash(infoHash))

	// --- a user arrives --------------------------------------------------
	fmt.Println("\nuser: browsing the index …")
	fmt.Println(get(srv.URL + "/index"))

	torrentBytes := get(srv.URL + "/torrent/" + tracker.HexHash(infoHash))
	parsed, err := metainfo.Unmarshal([]byte(torrentBytes))
	if err != nil {
		log.Fatal(err)
	}
	parsedHash, err := parsed.Info.InfoHash()
	if err != nil {
		log.Fatal(err)
	}
	if parsedHash != infoHash {
		log.Fatal("metadata integrity check failed")
	}
	fmt.Printf("user: metadata verified — %d files, %d pieces of %d bytes\n",
		len(parsed.Info.Files), parsed.Info.NumPieces(), parsed.Info.PieceLength)
	sub := parsed.Info.FilePieces()
	fmt.Printf("user: subtorrent of e01 spans pieces %d–%d; e10 spans %d–%d\n",
		sub[0].First, sub[0].Last, sub[9].First, sub[9].Last)

	// --- the swarm fills -------------------------------------------------
	for i := 0; i < 8; i++ {
		left, event := int64(1), "started"
		if i < 3 { // three peers already finished and seed
			left, event = 0, "completed"
		}
		var id [20]byte
		copy(id[:], fmt.Sprintf("peer%02d", i))
		if _, err := client.Announce(srv.URL+"/announce", infoHash, id, "127.0.0.1", 6881, left, event); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nafter 8 peers joined (3 seeding):")
	fmt.Println(get(srv.URL + "/index"))

	// --- choosing a scheme -----------------------------------------------
	corr, err := correlation.New(episodes, 0.95, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("user: fluid-model forecast for this torrent (p = 0.95):")
	for _, sc := range []scheme.Scheme{scheme.MFCD, scheme.CMFSD} {
		res, err := scheme.Evaluate(sc, fluid.PaperParams, corr, scheme.Options{Rho: 0.1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %6.1f time units online per episode\n", sc, res.AvgOnlinePerFile())
	}
	fmt.Println("→ download the episodes sequentially and seed finished ones (CMFSD).")
}

func get(rawURL string) string {
	resp, err := http.Get(rawURL)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}
