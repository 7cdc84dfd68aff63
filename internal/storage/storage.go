// Package storage holds a torrent's pieces during transfer: every incoming
// piece is verified against the metainfo's SHA-1 hashes before being
// admitted, and held pieces are served back as blocks and advertised as a
// bitfield. The store is memory-backed — the in-process client moves
// synthetic content — but hides that behind the same piece/offset geometry
// a disk-backed implementation would use.
package storage

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"

	"mfdl/internal/metainfo"
	"mfdl/internal/wire"
)

// Store is a verified piece store for one torrent. Safe for concurrent use.
type Store struct {
	info *metainfo.Info

	mu     sync.RWMutex
	pieces [][]byte
	have   wire.Bitfield
}

// New returns an empty store for the torrent.
func New(info *metainfo.Info) (*Store, error) {
	if info == nil {
		return nil, errors.New("storage: nil info")
	}
	if err := info.Validate(); err != nil {
		return nil, err
	}
	return &Store{
		info:   info,
		pieces: make([][]byte, info.NumPieces()),
		have:   wire.NewBitfield(info.NumPieces()),
	}, nil
}

// NewSeeded returns a store pre-filled from the full torrent content.
func NewSeeded(info *metainfo.Info, src metainfo.DataSource) (*Store, error) {
	s, err := New(info)
	if err != nil {
		return nil, err
	}
	total := info.TotalLength()
	for p := 0; p < info.NumPieces(); p++ {
		off := int64(p) * info.PieceLength
		n := info.PieceLength
		if off+n > total {
			n = total - off
		}
		buf := make([]byte, n)
		if err := src.ReadAt(buf, off); err != nil {
			return nil, err
		}
		if err := s.Put(p, buf); err != nil {
			return nil, fmt.Errorf("storage: seeding piece %d: %w", p, err)
		}
	}
	return s, nil
}

// PieceSize returns the byte length of piece p (the last piece is short).
func (s *Store) PieceSize(p int) int64 {
	total := s.info.TotalLength()
	off := int64(p) * s.info.PieceLength
	n := s.info.PieceLength
	if off+n > total {
		n = total - off
	}
	return n
}

// ErrBadHash is returned when a piece fails verification.
var ErrBadHash = errors.New("storage: piece hash mismatch")

// Put verifies and stores piece p. Duplicate puts of the same verified
// piece are idempotent.
func (s *Store) Put(p int, data []byte) error {
	if p < 0 || p >= s.info.NumPieces() {
		return fmt.Errorf("storage: piece %d out of range", p)
	}
	if int64(len(data)) != s.PieceSize(p) {
		return fmt.Errorf("storage: piece %d has %d bytes, want %d", p, len(data), s.PieceSize(p))
	}
	got := sha1.Sum(data)
	want := s.info.Pieces[p*sha1.Size : (p+1)*sha1.Size]
	for i := range got {
		if got[i] != want[i] {
			return ErrBadHash
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pieces[p] == nil {
		s.pieces[p] = append([]byte(nil), data...)
		s.have.Set(p)
	}
	return nil
}

// Block returns length bytes of piece p starting at begin.
func (s *Store) Block(p int, begin, length int64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if p < 0 || p >= len(s.pieces) || s.pieces[p] == nil {
		return nil, fmt.Errorf("storage: piece %d not held", p)
	}
	data := s.pieces[p]
	if begin < 0 || length < 0 || begin+length > int64(len(data)) {
		return nil, fmt.Errorf("storage: block [%d,%d) outside piece of %d bytes", begin, begin+length, len(data))
	}
	return append([]byte(nil), data[begin:begin+length]...), nil
}

// Has reports whether piece p is held.
func (s *Store) Has(p int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Has(p)
}

// Bitfield returns a snapshot of the availability bitmap.
func (s *Store) Bitfield() wire.Bitfield {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Clone()
}
