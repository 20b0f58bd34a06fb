// Package protocols registers every built-in protocol driver with the
// internal/proto registry (the database/sql driver pattern). Import it
// for side effects wherever deployments are launched by name — the
// façade does, which covers both CLIs and the examples; test packages
// that call the harness directly import it themselves.
package protocols

import (
	_ "flowercdn/internal/baseline" // origin-only, chord-global
	_ "flowercdn/internal/flower"   // flower, petalup
	_ "flowercdn/internal/koorde"   // koorde-global
	_ "flowercdn/internal/squirrel" // squirrel
)
