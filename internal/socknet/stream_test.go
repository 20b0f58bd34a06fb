package socknet

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flowercdn/internal/runtime"
)

// streamPair builds a connected client/server stream pair over a real
// localhost TCP connection under the named codec.
func streamPair(t *testing.T, codec string) (client, server *Stream) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			srvErr = err
			return
		}
		server, srvErr = AcceptStream(c, codec)
	}()
	client, err = DialStream(ln.Addr().String(), codec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestStreamRoundTrip(t *testing.T) {
	for _, codec := range runtime.Codecs() {
		t.Run(codec, func(t *testing.T) {
			client, server := streamPair(t, codec)

			// Both directions, with a registered wire type.
			want := benchPayload{Seq: 42, From: 7, Keys: []uint64{1, 2, 3}}
			if err := client.Send(want); err != nil {
				t.Fatal(err)
			}
			got, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := got.(benchPayload); !ok || p.Seq != 42 || len(p.Keys) != 3 {
				t.Fatalf("server received %#v, want %#v", got, want)
			}
			if err := server.Send(benchPayload{Seq: 43, From: 1}); err != nil {
				t.Fatal(err)
			}
			back, err := client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := back.(benchPayload); !ok || p.Seq != 43 {
				t.Fatalf("client received %#v", back)
			}
		})
	}
}

func TestStreamCloseUnblocksRecv(t *testing.T) {
	client, server := streamPair(t, "")
	done := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		done <- err
	}()
	client.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil error after peer close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
	if server.Close() != nil || server.Close() != nil {
		// Close is idempotent; repeated calls return the first result.
		t.Fatal("repeated Close reported an error")
	}
}

func TestStreamHandshakeRejectsCodecMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		AcceptStream(c, "binary") //nolint:errcheck // the dialer's error is asserted
	}()
	_, err = DialStream(ln.Addr().String(), "gob", time.Second)
	var he *handshakeError
	if !errors.As(err, &he) || !strings.Contains(err.Error(), "codec mismatch") {
		t.Fatalf("dial error = %v, want codec-mismatch handshake error", err)
	}
}

// DialStream's timeout covers the handshake as well as the dial: an
// endpoint that accepts and then says nothing costs the caller the
// timeout it asked for, not the fixed handshake bound.
func TestDialStreamTimeoutCoversHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c // held open, silent, until the test ends
		}
	}()
	defer func() {
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	}()
	start := time.Now()
	_, err = DialStream(ln.Addr().String(), "", 200*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil || IsHandshakeError(err) {
		t.Fatalf("dial error = %v, want a timeout that is not a handshake error", err)
	}
	if elapsed > time.Second {
		t.Fatalf("DialStream with a 200ms timeout took %v against a silent endpoint", elapsed)
	}
}

// A stream endpoint must refuse a mesh process's hello (and name the
// cause) rather than read frames it cannot interpret.
func TestStreamHandshakeRejectsMeshPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// A mesh process's preamble: group 1 of 3.
		c.Write(appendPreamble(nil, "gob", 1, 3)) //nolint:errcheck
	}()
	_, err = DialStream(ln.Addr().String(), "gob", time.Second)
	var he *handshakeError
	if !errors.As(err, &he) || !strings.Contains(err.Error(), "mesh process") {
		t.Fatalf("dial error = %v, want mesh-peer handshake error", err)
	}
}
