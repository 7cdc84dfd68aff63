package client

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"mfdl/internal/metainfo"
	"mfdl/internal/rng"
	"mfdl/internal/storage"
)

// torrent builds a K-file test torrent with deterministic content.
func torrent(t *testing.T, k int, fileSize, pieceLen int64) (*metainfo.MetaInfo, []byte) {
	t.Helper()
	src := rng.New(21)
	data := make([]byte, int64(k)*fileSize)
	for i := range data {
		data[i] = byte(src.Uint32())
	}
	files := make([]metainfo.FileEntry, k)
	for i := range files {
		files[i] = metainfo.FileEntry{Path: fmt.Sprintf("s/e%02d", i+1), Length: fileSize}
	}
	m, err := metainfo.Build("s", "/announce", pieceLen, files, metainfo.BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	return m, data
}

func seedClient(t *testing.T, m *metainfo.MetaInfo, data []byte) *Client {
	t.Helper()
	st, err := storage.NewSeeded(&m.Info, metainfo.BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Info: &m.Info, Store: st, PeerID: [20]byte{'s'}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func leechClient(t *testing.T, m *metainfo.MetaInfo, policy Policy, files []int, id byte) *Client {
	t.Helper()
	st, err := storage.New(&m.Info)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Info: &m.Info, Store: st, PeerID: [20]byte{id}, Policy: policy, Files: files})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Connect dials two clients together over an in-memory duplex pipe and
// registers the connection on both.
func Connect(a, b *Client) error {
	ca, cb := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- b.AddConn(cb) }()
	if err := a.AddConn(ca); err != nil {
		return err
	}
	return <-errc
}

// held counts the pieces c's store holds.
func held(c *Client) int {
	n := 0
	for p := 0; p < c.cfg.Info.NumPieces(); p++ {
		if c.cfg.Store.Has(p) {
			n++
		}
	}
	return n
}

// fileHeld reports whether c's store holds every piece of file f.
func fileHeld(c *Client, f int) bool {
	r := c.cfg.Info.FilePieces()[f]
	for p := r.First; p <= r.Last; p++ {
		if !c.cfg.Store.Has(p) {
			return false
		}
	}
	return true
}

func waitDone(t *testing.T, c *Client, within time.Duration) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(within):
		t.Fatalf("download did not complete in %v (errors: %v, have %d/%d)",
			within, c.Errors(), held(c), c.cfg.Info.NumPieces())
	}
}

func TestNewValidation(t *testing.T) {
	m, data := torrent(t, 2, 1024, 256)
	st, _ := storage.New(&m.Info)
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Info: &m.Info, Store: st, Files: []int{5}}); err == nil {
		t.Fatal("bad file index accepted")
	}
	_ = data
}

func TestSeedIsDoneImmediately(t *testing.T) {
	m, data := torrent(t, 2, 1024, 256)
	seed := seedClient(t, m, data)
	select {
	case <-seed.Done():
	default:
		t.Fatal("seed not done")
	}
}

func TestSingleLeecherDownloadsFromSeed(t *testing.T) {
	m, data := torrent(t, 3, 2048, 512)
	seed := seedClient(t, m, data)
	leech := leechClient(t, m, PolicySequential, nil, 'a')
	defer seed.Close()
	defer leech.Close()
	if err := Connect(leech, seed); err != nil {
		t.Fatal(err)
	}
	waitDone(t, leech, 10*time.Second)
	// Every piece reads back as the original content.
	for p := 0; p < m.Info.NumPieces(); p++ {
		off, n := int64(p)*m.Info.PieceLength, leech.cfg.Store.PieceSize(p)
		got, err := leech.cfg.Store.Block(p, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[off:off+n]) {
			t.Fatalf("piece %d content corrupted", p)
		}
	}
}

func TestDownloadOverRealTCP(t *testing.T) {
	m, data := torrent(t, 2, 4096, 1024)
	seed := seedClient(t, m, data)
	leech := leechClient(t, m, PolicyConcurrent, nil, 'b')
	defer seed.Close()
	defer leech.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			accepted <- err
			return
		}
		accepted <- seed.AddConn(nc)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.AddConn(nc); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	waitDone(t, leech, 10*time.Second)
}

func TestPartialFileSelection(t *testing.T) {
	// A class-2 user requests only files 0 and 2 of a 4-file torrent.
	m, data := torrent(t, 4, 1024, 256)
	seed := seedClient(t, m, data)
	leech := leechClient(t, m, PolicySequential, []int{0, 2}, 'c')
	defer seed.Close()
	defer leech.Close()
	if err := Connect(leech, seed); err != nil {
		t.Fatal(err)
	}
	waitDone(t, leech, 10*time.Second)
	if !fileHeld(leech, 0) || !fileHeld(leech, 2) {
		t.Fatal("requested files incomplete")
	}
	// File 1 may share boundary pieces but must not be fully fetched
	// unless it shares every piece (it doesn't at these sizes).
	if fileHeld(leech, 1) && fileHeld(leech, 3) {
		t.Fatal("unrequested files downloaded")
	}
}

func TestSequentialCompletesFilesInOrder(t *testing.T) {
	// Interrupt a sequential download halfway: early files must be the
	// complete ones. (This is the partial-seed property CMFSD uses.)
	m, data := torrent(t, 4, 4096, 512)
	st, _ := storage.New(&m.Info)
	leech, err := New(Config{Info: &m.Info, Store: st, PeerID: [20]byte{'d'}, Policy: PolicySequential})
	if err != nil {
		t.Fatal(err)
	}
	seed := seedClient(t, m, data)
	defer seed.Close()
	defer leech.Close()
	if err := Connect(leech, seed); err != nil {
		t.Fatal(err)
	}
	// Wait until at least half the pieces landed, then snapshot.
	deadline := time.Now().Add(10 * time.Second)
	for held(leech) < m.Info.NumPieces()/2 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled at %d pieces (errors %v)", held(leech), leech.Errors())
		}
		time.Sleep(time.Millisecond)
	}
	if !fileHeld(leech, 0) {
		t.Fatalf("sequential policy: file 0 incomplete at %d/%d pieces",
			held(leech), m.Info.NumPieces())
	}
	waitDone(t, leech, 10*time.Second)
}

func TestConcurrentPolicyInterleaves(t *testing.T) {
	// The concurrent wanted order must round-robin across files.
	m, _ := torrent(t, 3, 1024, 256) // 4 pieces per file, no shared pieces
	st, _ := storage.New(&m.Info)
	c, err := New(Config{Info: &m.Info, Store: st, PeerID: [20]byte{'e'}, Policy: PolicyConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11}
	for i, p := range want {
		if c.wanted[i] != p {
			t.Fatalf("wanted order %v, want %v", c.wanted, want)
		}
	}
}

func TestLeecherToLeecherRelay(t *testing.T) {
	// B is connected only to A (not the seed). A sequentially downloads
	// and serves finished pieces; B must complete through A alone — the
	// partial-seed relay that CMFSD builds on.
	m, data := torrent(t, 3, 2048, 512)
	seed := seedClient(t, m, data)
	a := leechClient(t, m, PolicySequential, nil, 'A')
	b := leechClient(t, m, PolicySequential, nil, 'B')
	defer seed.Close()
	defer a.Close()
	defer b.Close()
	if err := Connect(a, seed); err != nil {
		t.Fatal(err)
	}
	if err := Connect(b, a); err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, 10*time.Second)
	waitDone(t, b, 15*time.Second)
	if len(b.Errors()) > 0 {
		t.Fatalf("relay errors: %v", b.Errors())
	}
}

func TestManyLeechersOneSeed(t *testing.T) {
	m, data := torrent(t, 2, 2048, 512)
	seed := seedClient(t, m, data)
	defer seed.Close()
	var leeches []*Client
	for i := 0; i < 5; i++ {
		l := leechClient(t, m, PolicyConcurrent, nil, byte('0'+i))
		defer l.Close()
		if err := Connect(l, seed); err != nil {
			t.Fatal(err)
		}
		leeches = append(leeches, l)
	}
	for _, l := range leeches {
		waitDone(t, l, 15*time.Second)
	}
}

func TestInfoHashMismatchRejected(t *testing.T) {
	m1, data1 := torrent(t, 2, 1024, 256)
	src := rng.New(99)
	data2 := make([]byte, 2048)
	for i := range data2 {
		data2[i] = byte(src.Uint32())
	}
	m2, err := metainfo.Build("other", "/a", 256, []metainfo.FileEntry{
		{Path: "other/x", Length: 2048},
	}, metainfo.BytesSource(data2))
	if err != nil {
		t.Fatal(err)
	}
	a := seedClient(t, m1, data1)
	st, _ := storage.New(&m2.Info)
	b, err := New(Config{Info: &m2.Info, Store: st, PeerID: [20]byte{'x'}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := Connect(a, b); err == nil {
		t.Fatal("cross-torrent connection accepted")
	}
}

func TestFailoverWhenPeerDies(t *testing.T) {
	// Leecher connected to two seeds; the first dies mid-download. The
	// in-flight pieces must be re-requested from the survivor.
	m, data := torrent(t, 4, 8192, 512)
	seedA := seedClient(t, m, data)
	seedB := seedClient(t, m, data)
	leech := leechClient(t, m, PolicyConcurrent, nil, 'f')
	defer seedA.Close()
	defer seedB.Close()
	defer leech.Close()
	if err := Connect(leech, seedA); err != nil {
		t.Fatal(err)
	}
	if err := Connect(leech, seedB); err != nil {
		t.Fatal(err)
	}
	// Kill seed A once a few pieces have landed.
	deadline := time.Now().Add(10 * time.Second)
	for held(leech) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("no initial progress: %v", leech.Errors())
		}
		time.Sleep(time.Millisecond)
	}
	seedA.Close()
	waitDone(t, leech, 15*time.Second)
}

func BenchmarkEndToEndDownload(b *testing.B) {
	src := rng.New(21)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(src.Uint32())
	}
	m, err := metainfo.Build("b", "/a", 8<<10,
		[]metainfo.FileEntry{{Path: "b/x", Length: int64(len(data))}},
		metainfo.BytesSource(data))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedStore, _ := storage.NewSeeded(&m.Info, metainfo.BytesSource(data))
		seed, _ := New(Config{Info: &m.Info, Store: seedStore, PeerID: [20]byte{'s'}})
		leechStore, _ := storage.New(&m.Info)
		leech, _ := New(Config{Info: &m.Info, Store: leechStore, PeerID: [20]byte{'l'}})
		if err := Connect(leech, seed); err != nil {
			b.Fatal(err)
		}
		<-leech.Done()
		seed.Close()
		leech.Close()
	}
}
