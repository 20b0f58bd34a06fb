package harness

import (
	"testing"

	"flowercdn/internal/protocols"
	"flowercdn/internal/runtime"
)

// serialising puts every message, request and reply through the binary
// codec as it leaves its sender, so the receiver gets the decoded copy,
// as it would from another process. A sender that changes what it sent
// after sending it, or a marshaller that drops a field, makes the run
// diverge from the plain one.
type serialising struct {
	runtime.Transport
	codec runtime.Codec
	t     *testing.T
}

// copy is msg after a round trip through the codec.
func (s *serialising) copy(msg any) any {
	b, err := s.codec.AppendMessage(nil, msg)
	if err != nil {
		s.t.Fatalf("encode %T: %v", msg, err)
	}
	out, err := s.codec.DecodeMessage(b)
	if err != nil {
		s.t.Fatalf("decode %T: %v", msg, err)
	}
	return out
}

func (s *serialising) Join(h runtime.Handler, place runtime.Placement) runtime.NodeID {
	return s.Transport.Join(serialisedReplies{h, s}, place)
}

func (s *serialising) Send(from, to runtime.NodeID, msg any) {
	s.Transport.Send(from, to, s.copy(msg))
}

func (s *serialising) Request(from, to runtime.NodeID, req any, timeout int64, cb func(resp any, err error)) {
	s.Transport.Request(from, to, s.copy(req), timeout, cb)
}

// serialisedReplies serialises a handler's replies as they leave it.
type serialisedReplies struct {
	runtime.Handler
	s *serialising
}

func (h serialisedReplies) HandleRequest(from runtime.NodeID, req any) (any, error) {
	resp, err := h.Handler.HandleRequest(from, req)
	if err != nil {
		return resp, err
	}
	return h.s.copy(resp), nil
}

// TestSerialiseOnSend runs every protocol's tiny cell, under loss so
// that timeouts run too, on a sim backend whose transport serialises on
// send. The serialised run must be the plain run, event for event. It
// found flower's directory handing joiners a member's live key set
// (contactMeta), which later pushes changed under them.
func TestSerialiseOnSend(t *testing.T) {
	for _, name := range protocols.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Protocol = Protocol(name)
			cfg.MessageLossRate = 0.02
			plain := runCell(t, cfg)
			codec, err := runtime.NewCodec("binary")
			if err != nil {
				t.Fatal(err)
			}
			cfg.buildSim = func(clock runtime.Clock, newNet func(runtime.Clock) runtime.Transport) (runtime.Clock, runtime.Transport) {
				return clock, &serialising{Transport: newNet(clock), codec: codec, t: t}
			}
			serialised := rerun(t, cfg)
			if serialised.Fingerprint != plain.Fingerprint || serialised.EventsProcessed != plain.EventsProcessed {
				t.Fatalf("serialised run %016x (%d events), plain run %016x (%d events)",
					serialised.Fingerprint, serialised.EventsProcessed, plain.Fingerprint, plain.EventsProcessed)
			}
		})
	}
}
