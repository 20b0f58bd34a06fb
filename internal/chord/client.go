package chord

import (
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Client lets a peer that is NOT a ring member issue lookups and route
// payloads through a gateway member. This is how new clients use
// D-ring in the paper: they submit queries to the overlay without
// joining the structured layer themselves.
type Client struct {
	resolver
}

// NewClient builds a lookup client over a pool of its own; see
// Pool.NewClient, which the clients and members of one deployment share.
func NewClient(cfg Config, net runtime.Net, me runtime.NodeID) (*Client, error) {
	return NewPool().NewClient(cfg, net, me)
}

// LookupVia resolves key's owner through the gateway ring member,
// retrying on timeout like Node.Lookup.
func (c *Client) LookupVia(gateway Entry, key ids.ID, cb func(owner Entry, hops int, err error)) {
	c.lookup(gateway.Node, key, noFinger, cb)
}

// RouteVia sends an application payload toward key's owner through the
// gateway. One-way and best-effort; the owner's application answers the
// origin directly.
func (c *Client) RouteVia(gateway Entry, key ids.ID, payload any) {
	c.net.Send(c.self.Node, gateway.Node, c.oneWay(key, payload, false, nil))
}

// RouteViaTraced is RouteVia with hop tracing: path (owned by the
// message from here on) accumulates one HopRoute per overlay
// forwarding. The gateway handoff itself is not a ring forwarding and
// adds no hop, matching the Hops accounting.
func (c *Client) RouteViaTraced(gateway Entry, key ids.ID, payload any, path []trace.Hop) {
	c.net.Send(c.self.Node, gateway.Node, c.oneWay(key, payload, true, path))
}

// HandleMessage consumes lookup replies addressed to this client. It
// reports whether the message was Chord client traffic.
func (c *Client) HandleMessage(_ runtime.NodeID, msg any) bool {
	if m, ok := msg.(*routeMsg); ok && m.Reply {
		return c.consumeReply(m)
	}
	return false
}
