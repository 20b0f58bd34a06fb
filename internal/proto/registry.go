package proto

import (
	"fmt"
	"sort"
	"sync"
)

// The registry maps protocol names to their drivers. Registration
// happens in package init functions (a protocol package registers
// itself when imported); lookups happen per run, possibly from many
// sweep workers at once, hence the lock.

type driver struct {
	info  Info
	lower Lowering
}

var (
	regMu    sync.RWMutex
	registry = map[string]driver{}
)

// Register adds a protocol driver under info.Name. It panics on an
// empty name, a nil lowering, or a duplicate registration — all
// programmer errors surfaced at init time.
func Register(info Info, lower Lowering) {
	if info.Name == "" {
		panic("proto: Register with empty name")
	}
	if lower == nil {
		panic("proto: Register with nil lowering for " + info.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic("proto: duplicate registration of " + info.Name)
	}
	registry[info.Name] = driver{info: info, lower: lower}
}

func find(name string) (driver, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// lowered runs the named protocol's lowering over opts.
func lowered(name string, opts Options) (func(Env) (System, error), error) {
	d, ok := find(name)
	if !ok {
		return nil, fmt.Errorf("proto: unknown protocol %q (registered: %v)", name, Names())
	}
	return d.lower(opts)
}

// New builds a deployment of the named protocol: it lowers opts, vets
// env — here, once, for every protocol — and builds.
func New(name string, env Env, opts Options) (System, error) {
	build, err := lowered(name, opts)
	if err != nil {
		return nil, err
	}
	if env.Clock == nil || env.Net == nil || env.Oracle == nil || env.Topo == nil || env.RNG == nil ||
		env.Workload == nil || env.Origins == nil || env.Metrics == nil {
		return nil, fmt.Errorf("proto: incomplete Env for %s: Clock, Net, Oracle, Topo, RNG, Workload, Origins and Metrics are all required", name)
	}
	return build(env)
}

// Check statically validates opts for the named protocol — unknown
// names error, anything else is exactly its lowering's verdict — so a
// bad knob fails a sweep before any simulation runs rather than
// minutes into the worker pool.
func Check(name string, opts Options) error {
	_, err := lowered(name, opts)
	return err
}

// Registered reports whether name resolves to a driver.
func Registered(name string) bool {
	_, ok := find(name)
	return ok
}

// Lookup returns a registered protocol's descriptor.
func Lookup(name string) (Info, bool) {
	d, ok := find(name)
	return d.info, ok
}

func names(filter func(Info) bool) []string {
	regMu.RLock()
	infos := make([]Info, 0, len(registry))
	for _, d := range registry {
		if filter == nil || filter(d.info) {
			infos = append(infos, d.info)
		}
	}
	regMu.RUnlock()
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Order != infos[j].Order {
			return infos[i].Order < infos[j].Order
		}
		return infos[i].Name < infos[j].Name
	})
	out := make([]string, len(infos))
	for i, info := range infos {
		out[i] = info.Name
	}
	return out
}

// Names returns every registered protocol name in (Order, Name) order.
func Names() []string { return names(nil) }

// CompareNames returns the protocols that belong in default
// head-to-head comparison grids, in (Order, Name) order.
func CompareNames() []string {
	return names(func(i Info) bool { return i.Compare })
}
