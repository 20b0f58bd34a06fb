// Package dring implements D-ring's novel key-management service
// (paper Sec. 3.2): the deterministic assignment of ring positions to
// directory peers based on website and locality rather than uniform
// hashing.
//
// A position packs three fields into the 64-bit identifier:
//
//	[ 48-bit site prefix | 8-bit locality | 8-bit instance ]
//
// The site prefix is a hash of the website, so different websites
// scatter uniformly around the ring; the low 16 bits make all
// directory peers of one website — and all PetalUp instances of one
// (website, locality) — *successive* ring identifiers, which is exactly
// the neighborship property the paper relies on ("directory peers for
// the same website have successive peer IDs and are neighbors on
// D-ring"; PetalUp instances "have successive D-ring IDs").
//
// With 8 instance bits, up to 2^m = 256 instances d^i share one petal's
// directory load (the paper allows 2^m instances for a configurable m).
package dring

import (
	"fmt"

	"flowercdn/internal/content"
	"flowercdn/internal/ids"
	"flowercdn/internal/topology"
)

const (
	// InstanceBits is m: up to 2^m directory instances per (site, loc).
	InstanceBits = 8
	// MaxInstances is 2^m.
	MaxInstances = 1 << InstanceBits
	// LocalityBits bounds the number of localities the layout supports.
	LocalityBits   = 8
	MaxLocalities  = 1 << LocalityBits
	lowBits        = InstanceBits + LocalityBits
	instanceMask   = MaxInstances - 1
	localityMask   = (MaxLocalities - 1) << InstanceBits
	sitePrefixMask = ^(uint64(1)<<lowBits - 1)
)

// Position returns the D-ring identifier of directory peer d^instance
// for (site, loc).
func Position(site content.SiteID, loc topology.Locality, instance int) ids.ID {
	if int(loc) < 0 || int(loc) >= MaxLocalities {
		panic(fmt.Sprintf("dring: locality %d out of range", loc))
	}
	if instance < 0 || instance >= MaxInstances {
		panic(fmt.Sprintf("dring: instance %d out of range", instance))
	}
	return ids.ID(SitePrefixOf(site) | uint64(loc)<<InstanceBits | uint64(instance))
}

// SitePrefixOf returns the site prefix every position of site carries —
// what SitePrefix extracts from them. It hashes (SHA-1): callers that
// test many identifiers against one site compute it, or one of the
// site's positions, once and compare prefixes.
func SitePrefixOf(site content.SiteID) uint64 {
	return uint64(ids.Hash2(uint64(site), 0x5eed)) & sitePrefixMask
}

// SitePrefix returns the 48-bit site prefix of an identifier (shifted
// into the high bits, low bits zero).
func SitePrefix(id ids.ID) uint64 { return uint64(id) & sitePrefixMask }

// LocalityOf extracts the locality field.
func LocalityOf(id ids.ID) topology.Locality {
	return topology.Locality((uint64(id) & localityMask) >> InstanceBits)
}

// InstanceOf extracts the instance field.
func InstanceOf(id ids.ID) int { return int(uint64(id) & instanceMask) }

// SamePetal reports whether id is a directory position (any instance)
// of the petal (site, loc).
func SamePetal(id ids.ID, site content.SiteID, loc topology.Locality) bool {
	return id == Position(site, loc, InstanceOf(id)) && LocalityOf(id) == loc
}

// SameSite reports whether id belongs to site (any locality/instance).
func SameSite(id ids.ID, site content.SiteID) bool {
	return SitePrefix(id) == SitePrefixOf(site)
}
