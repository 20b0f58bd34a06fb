package proto

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
)

// This file defines the optional ring-introspection capability a
// deployment may expose so internal/ringcheck can assert structural
// correctness (Zave's "How to Make Chord Correct" invariants) at
// checkpoints of a deterministic run. Inspection is read-only and
// outside the protocol: it sees the same pointers the nodes route by,
// but never sends a message or advances the clock.

// RingNode names one ring member as seen from another member's routing
// state: its network address and ring position. The zero value (Node
// == 0) is only meaningful when produced against runtime.None — use
// Valid to test.
type RingNode struct {
	Node runtime.NodeID
	ID   ids.ID
}

// Valid reports whether the reference names a node.
func (r RingNode) Valid() bool { return r.Node != runtime.None }

// RingMember is a point-in-time snapshot of one ALIVE overlay member's
// ring state: its own position plus every pointer the checker needs.
type RingMember struct {
	// Node and ID identify the member itself.
	Node runtime.NodeID
	ID   ids.ID
	// Pred is the member's predecessor pointer (possibly invalid).
	Pred RingNode
	// Succs is the member's successor list, closest first.
	Succs []RingNode
	// DeBruijn is the member's de Bruijn pointer candidate set (koorde
	// only; nil for plain Chord overlays).
	DeBruijn []RingNode
}

// RingInspector is the optional capability a deployment implements so
// the invariant harness can snapshot its overlay: one RingMember per
// currently-alive, fully-joined ring member. Implementations must be
// deterministic (stable order for a given state) and side-effect free.
type RingInspector interface {
	RingMembers() []RingMember
}

// RingNodeOf is a convenience for the common chord.Entry shape.
func RingNodeOf(node runtime.NodeID, id ids.ID) RingNode {
	return RingNode{Node: node, ID: id}
}

// RingPointers is the part of an overlay node a snapshot reads;
// *chord.Node and *koorde.Node both have it.
type RingPointers interface {
	Self() chord.Entry
	Predecessor() chord.Entry
	SuccessorList() []chord.Entry
}

// RingMemberOf snapshots one overlay node's ring pointers (DeBruijn is
// left nil: plain Chord).
func RingMemberOf(n RingPointers) RingMember {
	self, pred := n.Self(), n.Predecessor()
	return RingMember{
		Node:  self.Node,
		ID:    self.ID,
		Pred:  RingNode{Node: pred.Node, ID: pred.ID},
		Succs: RingNodesOf(n.SuccessorList()),
	}
}

// RingNodesOf converts routing-table entries to references (chord.NoEntry
// becomes an invalid one); the result is never nil.
func RingNodesOf(es []chord.Entry) []RingNode {
	out := make([]RingNode, len(es))
	for i, e := range es {
		out[i] = RingNode{Node: e.Node, ID: e.ID}
	}
	return out
}
