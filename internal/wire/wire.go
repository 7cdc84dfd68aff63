// Package wire implements the BitTorrent peer wire protocol (BEP-3): the
// 68-byte handshake and the length-prefixed peer messages (choke, unchoke,
// interested, not interested, have, bitfield, request, piece, cancel).
// Together with internal/metainfo and internal/tracker it completes the
// protocol stack of the system the paper analyzes; internal/client uses it
// to move real multi-file torrents between in-process peers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// protocolString is the BEP-3 protocol identifier.
const protocolString = "BitTorrent protocol"

// HandshakeLen is the fixed handshake size.
const HandshakeLen = 1 + len(protocolString) + 8 + 20 + 20

// Handshake is the connection preamble.
type Handshake struct {
	InfoHash [20]byte
	PeerID   [20]byte
}

// WriteHandshake sends the handshake.
func WriteHandshake(w io.Writer, h Handshake) error {
	buf := make([]byte, 0, HandshakeLen)
	buf = append(buf, byte(len(protocolString)))
	buf = append(buf, protocolString...)
	buf = append(buf, make([]byte, 8)...) // reserved
	buf = append(buf, h.InfoHash[:]...)
	buf = append(buf, h.PeerID[:]...)
	_, err := w.Write(buf)
	return err
}

// ReadHandshake reads and validates a handshake.
func ReadHandshake(r io.Reader) (Handshake, error) {
	var h Handshake
	buf := make([]byte, HandshakeLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, fmt.Errorf("wire: handshake read: %w", err)
	}
	if int(buf[0]) != len(protocolString) || string(buf[1:1+len(protocolString)]) != protocolString {
		return h, errors.New("wire: not a BitTorrent handshake")
	}
	copy(h.InfoHash[:], buf[1+len(protocolString)+8:])
	copy(h.PeerID[:], buf[1+len(protocolString)+8+20:])
	return h, nil
}

// MessageType identifies a peer message.
type MessageType uint8

// BEP-3 message ids.
const (
	MsgChoke         MessageType = 0
	MsgUnchoke       MessageType = 1
	MsgInterested    MessageType = 2
	MsgNotInterested MessageType = 3
	MsgHave          MessageType = 4
	MsgBitfield      MessageType = 5
	MsgRequest       MessageType = 6
	MsgPiece         MessageType = 7
	MsgCancel        MessageType = 8
)

// String implements fmt.Stringer.
func (t MessageType) String() string {
	names := []string{"choke", "unchoke", "interested", "not-interested",
		"have", "bitfield", "request", "piece", "cancel"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Message is one decoded peer message. KeepAlive is represented by a nil
// *Message from ReadMessage.
type Message struct {
	Type MessageType
	// Index is the piece index (have, request, piece, cancel).
	Index uint32
	// Begin is the block offset within the piece (request, piece, cancel).
	Begin uint32
	// Length is the requested block length (request, cancel).
	Length uint32
	// Payload is the bitfield bytes (bitfield) or block data (piece).
	Payload []byte
}

// MaxMessageSize bounds accepted messages (1 MiB covers any sane piece).
const MaxMessageSize = 1 << 20

// WriteMessage encodes and sends msg; a nil msg sends a keep-alive.
func WriteMessage(w io.Writer, msg *Message) error {
	if msg == nil {
		return binary.Write(w, binary.BigEndian, uint32(0))
	}
	var body []byte
	switch msg.Type {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		body = []byte{byte(msg.Type)}
	case MsgHave:
		body = make([]byte, 5)
		body[0] = byte(msg.Type)
		binary.BigEndian.PutUint32(body[1:], msg.Index)
	case MsgBitfield:
		body = append([]byte{byte(msg.Type)}, msg.Payload...)
	case MsgRequest, MsgCancel:
		body = make([]byte, 13)
		body[0] = byte(msg.Type)
		binary.BigEndian.PutUint32(body[1:], msg.Index)
		binary.BigEndian.PutUint32(body[5:], msg.Begin)
		binary.BigEndian.PutUint32(body[9:], msg.Length)
	case MsgPiece:
		body = make([]byte, 9+len(msg.Payload))
		body[0] = byte(msg.Type)
		binary.BigEndian.PutUint32(body[1:], msg.Index)
		binary.BigEndian.PutUint32(body[5:], msg.Begin)
		copy(body[9:], msg.Payload)
	default:
		return fmt.Errorf("wire: cannot encode message type %v", msg.Type)
	}
	if err := binary.Write(w, binary.BigEndian, uint32(len(body))); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadMessage decodes one message; keep-alives return (nil, nil).
func ReadMessage(r io.Reader) (*Message, error) {
	var length uint32
	if err := binary.Read(r, binary.BigEndian, &length); err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, nil // keep-alive
	}
	if length > MaxMessageSize {
		return nil, fmt.Errorf("wire: message of %d bytes exceeds limit", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: message body: %w", err)
	}
	msg := &Message{Type: MessageType(body[0])}
	rest := body[1:]
	switch msg.Type {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		if len(rest) != 0 {
			return nil, fmt.Errorf("wire: %v with %d payload bytes", msg.Type, len(rest))
		}
	case MsgHave:
		if len(rest) != 4 {
			return nil, fmt.Errorf("wire: have with %d payload bytes", len(rest))
		}
		msg.Index = binary.BigEndian.Uint32(rest)
	case MsgBitfield:
		msg.Payload = rest
	case MsgRequest, MsgCancel:
		if len(rest) != 12 {
			return nil, fmt.Errorf("wire: %v with %d payload bytes", msg.Type, len(rest))
		}
		msg.Index = binary.BigEndian.Uint32(rest)
		msg.Begin = binary.BigEndian.Uint32(rest[4:])
		msg.Length = binary.BigEndian.Uint32(rest[8:])
	case MsgPiece:
		if len(rest) < 8 {
			return nil, fmt.Errorf("wire: piece with %d payload bytes", len(rest))
		}
		msg.Index = binary.BigEndian.Uint32(rest)
		msg.Begin = binary.BigEndian.Uint32(rest[4:])
		msg.Payload = rest[8:]
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", body[0])
	}
	return msg, nil
}

// Bitfield is a piece-availability bitmap, most significant bit first
// within each byte (BEP-3 layout).
type Bitfield []byte

// NewBitfield returns an all-zero bitfield for n pieces.
func NewBitfield(n int) Bitfield {
	return make(Bitfield, (n+7)/8)
}

// Has reports whether piece i is set (false out of range).
func (b Bitfield) Has(i int) bool {
	if i < 0 || i/8 >= len(b) {
		return false
	}
	return b[i/8]&(1<<(7-uint(i%8))) != 0
}

// Set marks piece i (no-op out of range).
func (b Bitfield) Set(i int) {
	if i < 0 || i/8 >= len(b) {
		return
	}
	b[i/8] |= 1 << (7 - uint(i%8))
}

// Clone returns a copy.
func (b Bitfield) Clone() Bitfield { return append(Bitfield(nil), b...) }
