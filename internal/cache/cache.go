// Package cache implements pluggable eviction policies for the
// capacity-bounded per-peer content stores (internal/content.Store).
//
// The paper assumes unbounded storage ("a content peer has enough
// storage potential to avoid replacing its content through the
// experiment's duration"); real deployments are capacity-bounded. This
// package is the seam that opens the first capacity-bounded scenario
// family: a Policy tracks residents and nominates victims, the four
// built-ins are one fixed list (policies.go) reached by name, and
// drivers resolve a policy solely by the shared
// "cache-policy"/"cache-capacity" options.
//
// Keys are packed uint64s (content.Key.Uint64); costs are generic
// units — 1 per object for the count-bounded policies, bytes for the
// byte-cost ones (Info.ByteCost). Policies are single-goroutine, like
// everything else inside one run.
package cache

import "fmt"

// Policy is one eviction policy instance, owned by exactly one store.
//
// The store drives it with a strict contract: OnAdd is called once per
// resident key (never for a key already tracked), OnHit only for
// tracked keys, Remove only for tracked keys, and after every OnAdd the
// store drains Victim/Remove pairs until Victim reports false. Victim
// must be deterministic: given the same op history, every
// implementation returns the same victim (ties break by smallest key),
// so bounded runs stay reproducible.
type Policy interface {
	// OnAdd records the insertion of key with the given cost units.
	OnAdd(key uint64, cost int64)
	// OnHit records an access to a tracked key (recency/frequency
	// signal; policies that ignore it may no-op).
	OnHit(key uint64)
	// Victim nominates the next key to evict while the policy is over
	// capacity; ok is false when nothing needs to go. Victim does not
	// remove — the store calls Remove after deleting the object.
	Victim() (key uint64, ok bool)
	// Remove drops a tracked key (eviction or external deletion).
	Remove(key uint64)
	// Len returns the number of tracked keys.
	Len() int
}

// Info describes a policy.
type Info struct {
	// Name is the policy's name ("none", "lru", ...), the value of the
	// "cache-policy" driver option.
	Name string
	// Summary is a one-line description for CLI listings.
	Summary string
	// ByteCost marks policies whose capacity and costs are byte
	// budgets (size-aware); count-bounded policies take capacity in
	// objects with unit costs.
	ByteCost bool
}

// Factory builds a policy instance with the given capacity (cost
// units). Capacity <= 0 means unbounded: the policy tracks residents
// but never nominates a victim.
type Factory func(capacity int64) Policy

// PolicyNone is the unbounded default — the paper's storage model.
const PolicyNone = "none"

// New builds an instance of the named policy.
func New(name string, capacity int64) (Policy, error) {
	for _, p := range policies {
		if p.info.Name == name {
			return p.factory(capacity), nil
		}
	}
	return nil, fmt.Errorf("cache: unknown policy %q (one of %v)", name, Names())
}

// Lookup returns a policy's descriptor.
func Lookup(name string) (Info, bool) {
	for _, p := range policies {
		if p.info.Name == name {
			return p.info, true
		}
	}
	return Info{}, false
}

// Names returns every policy name in listing order: "none" first (the
// default reads naturally in listings), then alphabetical.
func Names() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.info.Name
	}
	return out
}
