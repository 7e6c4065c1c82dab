package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// maxPacketPayload is the largest payload one wire packet carries; longer
// payloads continue in follow-up packets (standard MySQL framing).
const maxPacketPayload = 0xffffff

// packetConn frames payloads as MySQL packets over a net.Conn: a 3-byte
// little-endian payload length, a 1-byte sequence id, then the payload.
// Sequence ids start at 0 for each command and increment per packet in
// either direction.
type packetConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	seq  uint8
	// rhdr and whdr are reused header scratch. io.ReadFull and the bufio
	// large-write passthrough take their buffers through interfaces, so a
	// per-call stack array would escape — one heap allocation per packet,
	// which a row-streaming loop pays per row.
	rhdr, whdr [4]byte
}

func newPacketConn(c net.Conn) *packetConn {
	return &packetConn{conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// resetSeq starts a new command exchange.
func (p *packetConn) resetSeq() { p.seq = 0 }

// readPacketInto reads one logical packet, joining continuation packets,
// into buf's capacity when it suffices: each side of a connection reads every
// packet into its own scratch slice (conn.in, Client.pkt). The returned
// payload aliases buf (possibly regrown); it is valid only until the next
// readPacketInto with the same buffer.
func (p *packetConn) readPacketInto(buf []byte) ([]byte, error) {
	payload := buf[:0]
	for {
		hdr := p.rhdr[:]
		if _, err := io.ReadFull(p.r, hdr); err != nil {
			return nil, err
		}
		n := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16
		p.seq = hdr[3] + 1
		start := len(payload)
		if start+n > cap(payload) {
			grown := make([]byte, start+n)
			copy(grown, payload)
			payload = grown
		} else {
			payload = payload[:start+n]
		}
		if _, err := io.ReadFull(p.r, payload[start:]); err != nil {
			return nil, err
		}
		if n < maxPacketPayload {
			return payload, nil
		}
	}
}

// writePacket writes one logical packet, splitting payloads at the framing
// limit. The caller flushes.
func (p *packetConn) writePacket(payload []byte) error {
	for {
		chunk := payload
		if len(chunk) > maxPacketPayload {
			chunk = chunk[:maxPacketPayload]
		}
		hdr := p.whdr[:]
		hdr[0] = byte(len(chunk))
		hdr[1] = byte(len(chunk) >> 8)
		hdr[2] = byte(len(chunk) >> 16)
		hdr[3] = p.seq
		p.seq++
		if _, err := p.w.Write(hdr); err != nil {
			return err
		}
		if _, err := p.w.Write(chunk); err != nil {
			return err
		}
		if len(payload) < maxPacketPayload {
			return nil
		}
		payload = payload[maxPacketPayload:]
	}
}

func (p *packetConn) flush() error { return p.w.Flush() }

// --------------------------------------------------------------------------
// Length-encoded integers and strings (the protocol's variable-size scalars).

func appendLencInt(b []byte, v uint64) []byte {
	switch {
	case v < 251:
		return append(b, byte(v))
	case v < 1<<16:
		return append(b, 0xfc, byte(v), byte(v>>8))
	case v < 1<<24:
		return append(b, 0xfd, byte(v), byte(v>>8), byte(v>>16))
	default:
		b = append(b, 0xfe)
		return binary.LittleEndian.AppendUint64(b, v)
	}
}

func appendLencBytes(b, s []byte) []byte {
	b = appendLencInt(b, uint64(len(s)))
	return append(b, s...)
}

func appendLencString(b []byte, s string) []byte {
	b = appendLencInt(b, uint64(len(s)))
	return append(b, s...)
}

var errShortPacket = fmt.Errorf("server: truncated packet")

// readLencInt decodes a length-encoded integer at b[off], returning the
// value and the next offset.
func readLencInt(b []byte, off int) (uint64, int, error) {
	if off >= len(b) {
		return 0, 0, errShortPacket
	}
	switch c := b[off]; {
	case c < 251:
		return uint64(c), off + 1, nil
	case c == 0xfc:
		if off+3 > len(b) {
			return 0, 0, errShortPacket
		}
		return uint64(b[off+1]) | uint64(b[off+2])<<8, off + 3, nil
	case c == 0xfd:
		if off+4 > len(b) {
			return 0, 0, errShortPacket
		}
		return uint64(b[off+1]) | uint64(b[off+2])<<8 | uint64(b[off+3])<<16, off + 4, nil
	case c == 0xfe:
		if off+9 > len(b) {
			return 0, 0, errShortPacket
		}
		return binary.LittleEndian.Uint64(b[off+1:]), off + 9, nil
	default:
		return 0, 0, fmt.Errorf("server: invalid length-encoded integer 0x%02x", c)
	}
}

// readLencBytes decodes a length-encoded string at b[off].
func readLencBytes(b []byte, off int) ([]byte, int, error) {
	n, off, err := readLencInt(b, off)
	if err != nil {
		return nil, 0, err
	}
	if off+int(n) > len(b) {
		return nil, 0, errShortPacket
	}
	return b[off : off+int(n)], off + int(n), nil
}

// readNulString reads a NUL-terminated string at b[off].
func readNulString(b []byte, off int) (string, int, error) {
	for i := off; i < len(b); i++ {
		if b[i] == 0 {
			return string(b[off:i]), i + 1, nil
		}
	}
	return "", 0, errShortPacket
}
