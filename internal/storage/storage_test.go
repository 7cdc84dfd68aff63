package storage

import (
	"bytes"
	"sync"
	"testing"

	"mfdl/internal/metainfo"
	"mfdl/internal/rng"
)

// buildTorrent returns metadata and content for a 3-file torrent.
func buildTorrent(t *testing.T) (*metainfo.MetaInfo, []byte) {
	t.Helper()
	src := rng.New(9)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(src.Uint32())
	}
	files := []metainfo.FileEntry{
		{Path: "s/a", Length: 1000},
		{Path: "s/b", Length: 700},
		{Path: "s/c", Length: 1300},
	}
	m, err := metainfo.Build("s", "http://t/a", 256, files, metainfo.BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	return m, data
}

// allHeld reports whether s holds every piece of the torrent.
func allHeld(s *Store) bool {
	for p := 0; p < s.info.NumPieces(); p++ {
		if !s.Has(p) {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil info accepted")
	}
	m, _ := buildTorrent(t)
	bad := m.Info
	bad.PieceLength = 0
	if _, err := New(&bad); err == nil {
		t.Fatal("invalid info accepted")
	}
}

func TestPutGetVerified(t *testing.T) {
	m, data := buildTorrent(t)
	s, err := New(&m.Info)
	if err != nil {
		t.Fatal(err)
	}
	if s.Has(0) {
		t.Fatal("empty store claims pieces")
	}
	piece0 := data[:256]
	if err := s.Put(0, piece0); err != nil {
		t.Fatal(err)
	}
	if !s.Has(0) || s.Has(1) {
		t.Fatal("piece 0 not recorded alone")
	}
	back, err := s.Block(0, 0, 256)
	if err != nil || !bytes.Equal(back, piece0) {
		t.Fatalf("block: %v", err)
	}
	// Mutating the returned slice must not corrupt the store.
	back[0] ^= 0xFF
	again, _ := s.Block(0, 0, 256)
	if again[0] == back[0] {
		t.Fatal("Block aliases internal storage")
	}
}

func TestPutRejectsCorruption(t *testing.T) {
	m, data := buildTorrent(t)
	s, _ := New(&m.Info)
	bad := append([]byte(nil), data[:256]...)
	bad[10] ^= 1
	if err := s.Put(0, bad); err != ErrBadHash {
		t.Fatalf("corrupted piece: %v", err)
	}
	if err := s.Put(0, data[:100]); err == nil {
		t.Fatal("short piece accepted")
	}
	if err := s.Put(-1, data[:256]); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := s.Put(99, data[:256]); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestLastPieceShort(t *testing.T) {
	m, data := buildTorrent(t)
	s, _ := New(&m.Info)
	last := m.Info.NumPieces() - 1
	want := int64(3000) - int64(last)*256
	if s.PieceSize(last) != want {
		t.Fatalf("last piece size %d, want %d", s.PieceSize(last), want)
	}
	if err := s.Put(last, data[int64(last)*256:]); err != nil {
		t.Fatal(err)
	}
}

func TestNewSeededCompletes(t *testing.T) {
	m, data := buildTorrent(t)
	s, err := NewSeeded(&m.Info, metainfo.BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	if !allHeld(s) {
		t.Fatal("seeded store incomplete")
	}
}

func TestBlockReads(t *testing.T) {
	m, data := buildTorrent(t)
	s, _ := NewSeeded(&m.Info, metainfo.BytesSource(data))
	blk, err := s.Block(1, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blk, data[256+10:256+110]) {
		t.Fatal("block content wrong")
	}
	if _, err := s.Block(1, 200, 100); err == nil {
		t.Fatal("overlong block accepted")
	}
	empty, _ := New(&m.Info)
	if _, err := empty.Block(1, 0, 10); err == nil {
		t.Fatal("block from missing piece accepted")
	}
}

func TestConcurrentPuts(t *testing.T) {
	m, data := buildTorrent(t)
	s, _ := New(&m.Info)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < m.Info.NumPieces(); p++ {
				end := (p + 1) * 256
				if end > len(data) {
					end = len(data)
				}
				_ = s.Put(p, data[p*256:end])
				_ = s.Has(p)
				_ = s.Bitfield()
			}
		}()
	}
	wg.Wait()
	if !allHeld(s) {
		t.Fatal("concurrent puts lost pieces")
	}
}

func BenchmarkPutVerified(b *testing.B) {
	src := rng.New(9)
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(src.Uint32())
	}
	m, err := metainfo.Build("b", "http://t/a", 1<<14,
		[]metainfo.FileEntry{{Path: "b/x", Length: int64(len(data))}},
		metainfo.BytesSource(data))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := New(&m.Info)
		p := i % m.Info.NumPieces()
		if err := s.Put(p, data[p<<14:(p+1)<<14]); err != nil {
			b.Fatal(err)
		}
	}
}
