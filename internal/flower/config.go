package flower

import (
	"errors"
	"flowercdn/internal/runtime"
	"fmt"

	"flowercdn/internal/chord"
	"flowercdn/internal/gossip"
)

// Config gathers every protocol parameter of Flower-CDN and PetalUp-CDN.
type Config struct {
	// Chord configures the D-ring substrate.
	Chord chord.Config
	// Gossip configures petal membership (Table 1: 1 hour period).
	Gossip gossip.Config

	// KeepaliveInterval is the period of content-peer keepalives to the
	// directory (Table 1 ties it to the gossip period: 1 hour).
	KeepaliveInterval int64
	// PushThreshold is the changed fraction of the local store beyond
	// which a content peer pushes its delta (Table 1: 0.5).
	PushThreshold float64

	// QueryTimeout bounds one attempt of a client query over D-ring.
	QueryTimeout int64
	// SeedRetryDelay is how long a bootstrap seed waits before retrying
	// a transiently failed D-ring position claim. The paper-scale
	// default (30 s) is negligible against a 24 h run; compressed demo
	// timescales shrink it so multi-process bootstrap completes within
	// a seconds-scale horizon.
	SeedRetryDelay int64

	// DirLoadLimit is PetalUp-CDN's per-instance load limit, measured —
	// as in Sec. 4 — in content peers per directory view. Zero disables
	// splitting, which is classic Flower-CDN.
	DirLoadLimit int

	// DirCollaboration lets a directory that cannot resolve a query ask
	// the same website's directory in another locality before declaring
	// a miss (Sec. 3.2: "directory peers of the same website may
	// collaborate to provide content of ws").
	DirCollaboration bool

	// ExactSummaries replaces Bloom content summaries with exact key
	// sets — the ablation quantifying what Bloom false positives cost
	// (wasted probes) against what they save (summary bytes).
	ExactSummaries bool
}

const (
	// memberTTLFactor: a directory expires members silent for
	// memberTTLFactor * KeepaliveInterval.
	memberTTLFactor = 1.6
	// auditInterval is how often a directory verifies through a
	// third-party lookup that the ring still routes its position to it,
	// demoting itself when a duplicate won the seat and re-announcing
	// itself when the ring routes around it.
	auditInterval = 4 * runtime.Minute
	// queryRetries is how many gateways a new client tries before
	// falling back to claiming the position itself.
	queryRetries = 3
	// gossipCandidates bounds how many summary-matching petal contacts
	// a query probes before falling back to the directory.
	gossipCandidates = 3
	// maxProviders bounds how many providers a directory reply names;
	// the client probes each in turn before falling back to the origin.
	maxProviders = 3
)

// DefaultConfig returns the paper's Table 1 parameters for classic
// Flower-CDN.
func DefaultConfig() Config {
	return Config{
		Chord:             chord.DefaultConfig(),
		Gossip:            gossip.DefaultConfig(),
		KeepaliveInterval: 1 * runtime.Hour,
		PushThreshold:     0.5,
		QueryTimeout:      10 * runtime.Second,
		SeedRetryDelay:    30 * runtime.Second,
		DirLoadLimit:      0,
		DirCollaboration:  true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Chord.Validate(); err != nil {
		return fmt.Errorf("flower: %w", err)
	}
	if err := c.Gossip.Validate(); err != nil {
		return fmt.Errorf("flower: %w", err)
	}
	if c.KeepaliveInterval <= 0 {
		return errors.New("flower: keepalive interval must be positive")
	}
	if c.PushThreshold <= 0 || c.PushThreshold > 1 {
		return errors.New("flower: push threshold must be in (0, 1]")
	}
	if c.QueryTimeout <= 0 {
		return errors.New("flower: query timeout must be positive")
	}
	if c.SeedRetryDelay <= 0 {
		return errors.New("flower: seed retry delay must be positive")
	}
	if c.DirLoadLimit < 0 {
		return errors.New("flower: negative directory load limit")
	}
	return nil
}
