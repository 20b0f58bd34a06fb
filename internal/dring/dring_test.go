package dring

import (
	"testing"
	"testing/quick"

	"flowercdn/internal/content"
	"flowercdn/internal/ids"
	"flowercdn/internal/topology"
)

func TestRoundTripFields(t *testing.T) {
	f := func(site uint16, loc uint8, inst uint8) bool {
		s := content.SiteID(site % 1000)
		l := topology.Locality(int(loc) % MaxLocalities)
		i := int(inst) % MaxInstances
		id := Position(s, l, i)
		return LocalityOf(id) == l && InstanceOf(id) == i && SamePetal(id, s, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstancesAreSuccessiveIDs(t *testing.T) {
	// PetalUp instances d^0..d^k must be consecutive ring identifiers.
	base := Position(7, 3, 0)
	for i := 1; i < 10; i++ {
		if Position(7, 3, i) != base.Add(uint64(i)) {
			t.Fatalf("instance %d not successive to base", i)
		}
	}
}

func TestLocalitiesOfOneSiteAreNeighbors(t *testing.T) {
	// All directory peers of one website share the 48-bit prefix, so
	// they form one contiguous ring segment.
	p0 := Position(12, 0, 0)
	for loc := topology.Locality(0); loc < 6; loc++ {
		id := Position(12, loc, 0)
		if SitePrefix(id) != SitePrefix(p0) {
			t.Fatalf("locality %d escaped the site segment", loc)
		}
		if !SameSite(id, 12) {
			t.Fatalf("SameSite false for own site at loc %d", loc)
		}
		if SameSite(id, 13) {
			t.Fatal("SameSite true for a different site")
		}
	}
}

func TestDifferentSitesScatter(t *testing.T) {
	// Site prefixes should be distinct (hash scatter) for a realistic
	// catalog size.
	seen := map[uint64]content.SiteID{}
	for s := content.SiteID(0); s < 500; s++ {
		p := SitePrefix(Position(s, 0, 0))
		if prev, dup := seen[p]; dup {
			t.Fatalf("sites %d and %d share a 48-bit prefix", prev, s)
		}
		seen[p] = s
	}
}

func TestSamePetalRejectsOtherPetals(t *testing.T) {
	id := Position(5, 2, 1)
	if SamePetal(id, 5, 3) {
		t.Fatal("matched wrong locality")
	}
	if SamePetal(id, 6, 2) {
		t.Fatal("matched wrong site")
	}
	// An arbitrary hash-ID almost surely matches no petal.
	random := ids.HashString("random-node")
	if SamePetal(random, 5, LocalityOf(random)) {
		t.Fatal("random id matched a petal")
	}
}

func TestPositionPanicsOutOfRange(t *testing.T) {
	for name, fn := range map[string]func(){
		"neg loc":  func() { Position(1, -1, 0) },
		"big loc":  func() { Position(1, MaxLocalities, 0) },
		"neg inst": func() { Position(1, 0, -1) },
		"big inst": func() { Position(1, 0, MaxInstances) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSameSiteIsAPrefixComparison pins what lets a directory hash its
// site once and then test ring entries by prefix: for any identifier —
// a position of the site, of another site, or no position at all —
// SameSite agrees with comparing SitePrefix to SitePrefixOf.
func TestSameSiteIsAPrefixComparison(t *testing.T) {
	f := func(raw uint64, site, other uint16, loc, inst uint8) bool {
		s, o := content.SiteID(site%1000), content.SiteID(other%1000)
		for _, id := range []ids.ID{
			ids.ID(raw),
			Position(s, topology.Locality(loc), int(inst)),
			Position(o, topology.Locality(loc), int(inst)),
		} {
			if SameSite(id, s) != (SitePrefix(id) == SitePrefixOf(s)) {
				return false
			}
		}
		return SameSite(Position(s, topology.Locality(loc), int(inst)), s) &&
			SitePrefix(Position(s, 0, 0)) == SitePrefixOf(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
