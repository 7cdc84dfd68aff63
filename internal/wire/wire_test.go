package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
	"testing/quick"
)

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Handshake{}
	copy(h.InfoHash[:], bytes.Repeat([]byte{0xAB}, 20))
	copy(h.PeerID[:], []byte("-MF0001-abcdefghijkl"))
	if err := WriteHandshake(&buf, h); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HandshakeLen {
		t.Fatalf("handshake length %d, want %d", buf.Len(), HandshakeLen)
	}
	back, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip changed handshake")
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	if _, err := ReadHandshake(bytes.NewReader(make([]byte, HandshakeLen))); err == nil {
		t.Fatal("zero handshake accepted")
	}
	if _, err := ReadHandshake(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("short handshake accepted")
	}
}

func roundTrip(t *testing.T, msg *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []*Message{
		{Type: MsgChoke},
		{Type: MsgUnchoke},
		{Type: MsgInterested},
		{Type: MsgNotInterested},
		{Type: MsgHave, Index: 42},
		{Type: MsgBitfield, Payload: []byte{0xF0, 0x01}},
		{Type: MsgRequest, Index: 3, Begin: 16384, Length: 16384},
		{Type: MsgCancel, Index: 3, Begin: 16384, Length: 16384},
		{Type: MsgPiece, Index: 7, Begin: 0, Payload: []byte("block data")},
	}
	for _, m := range msgs {
		back := roundTrip(t, m)
		if back.Type != m.Type || back.Index != m.Index || back.Begin != m.Begin || back.Length != m.Length {
			t.Fatalf("%v: header fields lost: %+v vs %+v", m.Type, back, m)
		}
		if !bytes.Equal(back.Payload, m.Payload) {
			t.Fatalf("%v: payload lost", m.Type)
		}
	}
}

func TestKeepAlive(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4 {
		t.Fatalf("keep-alive length %d", buf.Len())
	}
	msg, err := ReadMessage(&buf)
	if err != nil || msg != nil {
		t.Fatalf("keep-alive decode: %v %v", msg, err)
	}
}

func TestReadMessageRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		{0, 0, 0, 2, byte(MsgChoke), 99},           // choke with payload
		{0, 0, 0, 3, byte(MsgHave), 0, 0},          // short have
		{0, 0, 0, 5, byte(MsgRequest), 0, 0, 0, 0}, // short request
		{0, 0, 0, 3, byte(MsgPiece), 0, 0},         // short piece
		{0, 0, 0, 1, 99},                           // unknown type
		{0xFF, 0xFF, 0xFF, 0xFF},                   // absurd length
	}
	for i, c := range cases {
		if _, err := ReadMessage(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestReadMessageEOF(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	// Truncated body.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 9, byte(MsgPiece)})); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// count returns the number of pieces set among the first n.
func count(b Bitfield, n int) int {
	k := 0
	for i := 0; i < n; i++ {
		if b.Has(i) {
			k++
		}
	}
	return k
}

func TestBitfieldBasics(t *testing.T) {
	b := NewBitfield(10)
	if len(b) != 2 {
		t.Fatalf("bitfield size %d", len(b))
	}
	b.Set(0)
	b.Set(7)
	b.Set(9)
	for i := 0; i < 10; i++ {
		want := i == 0 || i == 7 || i == 9
		if b.Has(i) != want {
			t.Fatalf("bit %d = %v", i, b.Has(i))
		}
	}
	if count(b, 16) != 3 {
		t.Fatalf("count %d", count(b, 16))
	}
	// MSB-first layout: piece 0 is the high bit of byte 0.
	if b[0]&0x80 == 0 {
		t.Fatal("piece 0 not in MSB")
	}
}

func TestBitfieldOutOfRange(t *testing.T) {
	b := NewBitfield(8)
	if b.Has(-1) || b.Has(8) {
		t.Fatal("out-of-range Has true")
	}
	b.Set(-1)
	b.Set(8) // must not panic
	if count(b, 8) != 0 {
		t.Fatal("out-of-range Set changed bits")
	}
}

func TestBitfieldCloneIndependent(t *testing.T) {
	a := NewBitfield(8)
	a.Set(1)
	c := a.Clone()
	c.Set(2)
	if a.Has(2) {
		t.Fatal("clone aliases original")
	}
}

func TestBitfieldSetHasProperty(t *testing.T) {
	f := func(bits []uint8) bool {
		b := NewBitfield(64)
		seen := map[int]bool{}
		for _, raw := range bits {
			i := int(raw % 64)
			b.Set(i)
			seen[i] = true
		}
		for i := 0; i < 64; i++ {
			if b.Has(i) != seen[i] {
				return false
			}
		}
		return count(b, 64) == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessagesOverRealConn(t *testing.T) {
	// The codec must work across a real socket boundary.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		if err := WriteHandshake(a, Handshake{InfoHash: [20]byte{1}, PeerID: [20]byte{2}}); err != nil {
			done <- err
			return
		}
		done <- WriteMessage(a, &Message{Type: MsgPiece, Index: 5, Payload: []byte("xyz")})
	}()
	h, err := ReadHandshake(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.InfoHash[0] != 1 {
		t.Fatal("handshake corrupted over pipe")
	}
	msg, err := ReadMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Index != 5 || string(msg.Payload) != "xyz" {
		t.Fatalf("message corrupted: %+v", msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPieceMessageRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAB}, 16384)
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, &Message{Type: MsgPiece, Index: 7, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
}
