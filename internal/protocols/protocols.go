// Package protocols is the list of built-in protocol drivers. A
// protocol exists because it is in All: the harness and the façade
// resolve a name here, the CLIs list All in its order, and the
// fingerprint check walks that same order.
package protocols

import (
	"flowercdn/internal/baseline"
	"flowercdn/internal/flower"
	"flowercdn/internal/koorde"
	"flowercdn/internal/proto"
	"flowercdn/internal/squirrel"
)

// All is every protocol in presentation order: the paper's protocols
// first, the baselines after.
var All = []proto.Driver{
	flower.Flower,
	flower.PetalUp,
	squirrel.Driver,
	baseline.ChordGlobal,
	koorde.Global,
	baseline.OriginOnly,
}

// Lookup returns the named protocol's driver.
func Lookup(name string) (proto.Driver, bool) {
	for _, d := range All {
		if d.Info.Name == name {
			return d, true
		}
	}
	return proto.Driver{}, false
}

// Names returns every protocol name, in All's order.
func Names() []string { return names(false) }

// CompareNames returns the protocols that belong in default head-to-head
// comparison grids, in All's order.
func CompareNames() []string { return names(true) }

func names(compareOnly bool) []string {
	var out []string
	for _, d := range All {
		if !compareOnly || d.Info.Compare {
			out = append(out, d.Info.Name)
		}
	}
	return out
}
