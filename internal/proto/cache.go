package proto

import (
	"fmt"

	"flowercdn/internal/cache"
	"flowercdn/internal/content"
	"flowercdn/internal/metrics"
	"flowercdn/internal/workload"
)

// Every protocol's stores read the same two option keys, so one option
// set bounds a whole comparison grid the way the protocol knobs already
// do. No driver reads them: Driver.Check and Driver.New validate them
// once for every protocol, and the harness builds the stores the
// Population hands out.
const (
	// OptCachePolicy names the eviction policy of every peer's content
	// store; any name internal/cache lists ("none", "lfu", "lru",
	// "size-aware"). Default "none": the paper's unbounded
	// model, bit-identical to a store built before this seam existed.
	OptCachePolicy = "cache-policy"
	// OptCacheCapacity is the per-peer store capacity in objects.
	// Byte-cost policies convert it to a byte budget at the workload's
	// mean object size, so the knob stays comparable across policies.
	// Required >= 1 for every policy except "none".
	OptCacheCapacity = "cache-capacity"
)

// CacheConfig is the resolved cache configuration of one run.
type CacheConfig struct {
	Policy   string
	Capacity int
}

// CacheConfigFromOptions reads and validates the shared cache options.
// Driver.Check calls it, so a bad policy name or capacity fails a sweep
// before any simulation runs.
func CacheConfigFromOptions(opts Options) (CacheConfig, error) {
	c := CacheConfig{
		Policy:   opts.String(OptCachePolicy, cache.PolicyNone),
		Capacity: opts.Int(OptCacheCapacity, 0),
	}
	if c.Policy == "" {
		c.Policy = cache.PolicyNone
	}
	return c, c.Validate()
}

// Validate checks the configuration against the policy list. Both
// half-set combinations are rejected — a bounded policy without a
// capacity, and a capacity without a bounding policy — so a forgotten
// knob fails the run up front instead of silently running unbounded.
func (c CacheConfig) Validate() error {
	if _, ok := cache.Lookup(c.Policy); !ok {
		return fmt.Errorf("proto: unknown cache policy %q (one of %v)", c.Policy, cache.Names())
	}
	if c.Bounded() && c.Capacity < 1 {
		return fmt.Errorf("proto: cache policy %q needs %s >= 1, got %d", c.Policy, OptCacheCapacity, c.Capacity)
	}
	if !c.Bounded() && c.Capacity > 0 {
		return fmt.Errorf("proto: %s %d set without a bounding %s (policy is %q; pick one of %v)",
			OptCacheCapacity, c.Capacity, OptCachePolicy, c.Policy, cache.Names())
	}
	return nil
}

// Bounded reports whether the configuration actually evicts.
func (c CacheConfig) Bounded() bool { return c.Policy != cache.PolicyNone }

// StoreInit returns the per-peer store constructor for this run, which
// makes a store in place: nil for "none" (the zero content.Store is the
// unbounded paper model, with zero per-store overhead), otherwise one
// that bounds the store by a policy and streams one CounterEvictions
// event per evicted object through the run's metrics pipeline. The
// harness calls it once per run, after validation, for the run's
// Population; every store gets its own policy instance.
func (c CacheConfig) StoreInit(env Env) func(*content.Store) {
	if !c.Bounded() {
		return nil
	}
	info, _ := cache.Lookup(c.Policy)
	capacity := int64(c.Capacity)
	var costFn func(content.Key) int64
	if info.ByteCost {
		capacity *= workload.MeanObjectBytes
		costFn = workload.ObjectBytes
	}
	onEvict := func(content.Key) {
		env.Metrics.Emit(metrics.CounterEvent(env.Clock.Now(), metrics.CounterEvictions, 1))
	}
	policy := c.Policy
	return func(s *content.Store) {
		pol, err := cache.New(policy, capacity)
		if err != nil {
			panic(err) // unreachable: the name validated above
		}
		s.Init(content.StoreOptions{Policy: pol, Cost: costFn, OnEvict: onEvict})
	}
}
