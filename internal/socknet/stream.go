package socknet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"flowercdn/internal/runtime"
)

// Stream is a point-to-point message channel over one TCP connection,
// speaking the socket backend's wire envelope: the same connection
// preamble (magic, format version, codec name, wire-type registry sum)
// followed by length-prefixed batches, each batch carrying exactly one
// codec-encoded message. It is the transport under internal/distsweep's
// coordinator/worker protocol — anything whose message types are
// registered with runtime.RegisterWireType can ride it.
//
// A stream announces itself with group coordinates (0, 0) in the
// preamble, which no mesh process can produce (a mesh always has at
// least one group), so a stream endpoint dialed by a mesh process — or
// vice versa — fails the handshake with a named cause instead of a
// decode error mid-traffic.
//
// Send is safe for concurrent use (a worker's heartbeat goroutine
// writes alongside its main loop); Recv must be called from a single
// goroutine. Close unblocks a pending Recv and is idempotent.
type Stream struct {
	c     net.Conn
	codec runtime.Codec

	wmu  sync.Mutex
	wbuf []byte
	rbuf []byte

	closeOnce sync.Once
	closeErr  error
}

// streamHandshakeTimeout bounds the preamble exchange; a peer that
// cannot produce ~30 bytes in this window is not a flowercdn endpoint.
const streamHandshakeTimeout = 10 * time.Second

// DialStream connects to a stream endpoint at addr and performs the
// preamble handshake under the named codec ("" = runtime.DefaultCodec,
// binary). timeout bounds the dial and the handshake together (<= 0
// means streamHandshakeTimeout).
func DialStream(addr, codecName string, timeout time.Duration) (*Stream, error) {
	if timeout <= 0 {
		timeout = streamHandshakeTimeout
	}
	deadline := time.Now().Add(timeout)
	c, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("socknet: dial stream %s: %w", addr, err)
	}
	return newStream(c, codecName, deadline)
}

// AcceptStream wraps a just-accepted connection into a Stream,
// performing the server side of the preamble handshake. On error the
// connection is closed.
func AcceptStream(c net.Conn, codecName string) (*Stream, error) {
	return newStream(c, codecName, time.Now().Add(streamHandshakeTimeout))
}

// newStream runs the symmetric handshake, which must finish by
// deadline: both sides write their preamble first, then read and check
// the peer's. The writes are tiny, so writing before reading cannot
// deadlock.
func newStream(c net.Conn, codecName string, deadline time.Time) (*Stream, error) {
	if codecName == "" {
		codecName = runtime.DefaultCodec
	}
	codec, err := runtime.NewCodec(codecName)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("socknet: stream codec: %w", err)
	}
	c.SetDeadline(deadline) //nolint:errcheck
	if _, err := c.Write(appendPreamble(nil, codec.Name(), 0, 0)); err != nil {
		c.Close()
		return nil, fmt.Errorf("socknet: stream preamble write: %w", err)
	}
	p, err := readPreamble(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := checkStreamPreamble(p, codec); err != nil {
		c.Close()
		return nil, err
	}
	c.SetDeadline(time.Time{}) //nolint:errcheck
	return &Stream{c: c, codec: codec}, nil
}

// checkStreamPreamble verifies a peer's preamble against a stream
// endpoint's identity — the stream-mode analogue of
// (*Transport).checkPreamble.
func checkStreamPreamble(p preamble, codec runtime.Codec) error {
	if p.version != wireVersion {
		return handshakeErrf("wire format version mismatch: peer runs v%d, we run v%d", p.version, wireVersion)
	}
	if p.groups != 0 || p.group != 0 {
		return handshakeErrf("peer is a socket-backend mesh process (group %d of %d), not a stream endpoint", p.group, p.groups)
	}
	if p.codec != codec.Name() {
		return handshakeErrf("codec mismatch: peer runs %q, we run %q", p.codec, codec.Name())
	}
	if p.sum != runtime.WireRegistrySum() {
		return handshakeErrf("wire-type registry mismatch (%#x vs %#x): peers built with different protocol sets", p.sum, runtime.WireRegistrySum())
	}
	return nil
}

// Send encodes msg and writes it as one batch. The concrete type of
// msg must be registered with runtime.RegisterWireType.
func (s *Stream) Send(msg any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	buf := append(s.wbuf[:0], 0, 0, 0, 0) // batchHeader length placeholder
	buf, err := s.codec.AppendMessage(buf, msg)
	if err != nil {
		return err
	}
	if len(buf)-batchHeader > maxBatchBytes {
		return fmt.Errorf("socknet: stream message %T is %d bytes (max %d)", msg, len(buf)-batchHeader, maxBatchBytes)
	}
	finishBatch(buf)
	s.wbuf = buf
	s.c.SetWriteDeadline(time.Now().Add(writeDeadline)) //nolint:errcheck
	if _, err := s.c.Write(buf); err != nil {
		return fmt.Errorf("socknet: stream write: %w", err)
	}
	return nil
}

// Recv blocks for the next message. It returns an error once the
// stream is closed (locally or by the peer).
func (s *Stream) Recv() (any, error) {
	if _, err := readBatch(s.c, &s.rbuf); err != nil {
		return nil, err
	}
	return s.codec.DecodeMessage(s.rbuf)
}

// RemoteAddr reports the peer's address, for logs.
func (s *Stream) RemoteAddr() string { return s.c.RemoteAddr().String() }

// Close tears the connection down, unblocking any pending Recv.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.c.Close() })
	return s.closeErr
}
