// Package tenant generalizes the harmonyd control loop from one implicit
// application to N: each tenant owns a name, an SLO (target mean
// scheduling delay), an arrival stream, and a cost share. Tenants with
// compatible SLOs merge into provisioning groups — HarmonyBatch-style —
// and every group runs its own complete forecast → size → MPC → pack
// pipeline (a private daemon.Engine, so warm LP bases, delta-placement
// state, and online classification stay per group). The layer adds
// per-tenant ingest routing and accounting, per-group cost and
// SLO-violation accounting, and an HTTP front-end with per-tenant
// backpressure under a shared global cap.
//
// Single-tenant harmonyd is a one-tenant Multi (Single) served by the
// same Server, which renders it in the single-tenant wire shapes. With
// exactly one tenant the group pipeline is configured identically to a
// bare daemon.Engine, so plans (and the deterministic engine metrics) are
// bit-identical to an engine driven over the same stream — the N=1
// equivalence contract pinned by the tests in this package.
package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Spec declares one tenant (application) of the provisioning plane.
type Spec struct {
	// Name identifies the tenant; tasks carry it in their "tenant" field.
	Name string `json:"name"`
	// SLODelay is the tenant's target mean scheduling delay in seconds
	// for production-priority work; sched scales it for the lower-priority
	// groups (2.5× other, 7.5× gratis). 0 means the default, 120.
	SLODelay float64 `json:"sloDelay,omitempty"`
	// Share weights the tenant's slice of its group's provisioning cost
	// (its price sensitivity). Defaults to 1.
	Share float64 `json:"share,omitempty"`
	// QueueSize bounds the tenant's private ingest queue; 0 uses the
	// server's QueueSize, which also caps every tenant's queue together.
	QueueSize int `json:"queueSize,omitempty"`
}

// Document is the tenants config file format read by harmonyd -tenants.
type Document struct {
	Tenants []Spec `json:"tenants"`
	// SLOTolerance is the grouping compatibility factor: a tenant joins a
	// group when its SLO is within this multiple of the group's smallest
	// member SLO (default 2).
	SLOTolerance float64 `json:"sloTolerance,omitempty"`
}

// DefaultSLOTolerance is the grouping factor used when a Document (or
// Config) does not set one.
const DefaultSLOTolerance = 2.0

// Load parses and validates a tenants config document.
func Load(r io.Reader) (*Document, error) {
	var doc Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("tenant: parse config: %w", err)
	}
	if err := ValidateSpecs(doc.Tenants); err != nil {
		return nil, err
	}
	if err := validateTolerance(doc.SLOTolerance); err != nil {
		return nil, err
	}
	return &doc, nil
}

// validateTolerance is the grouping-factor check Load and New share: 0
// (the default) or a finite value >= 1. Below 1 would split equal SLOs,
// +Inf would merge every explicit SLO into one group, and NaN would split
// compatible ones.
func validateTolerance(tol float64) error {
	if tol != 0 && !(tol >= 1 && !math.IsInf(tol, 1)) {
		return fmt.Errorf("tenant: sloTolerance %v is not 0 (the default) or a finite value >= 1", tol)
	}
	return nil
}

// ValidateSpecs rejects empty, duplicate, or non-finite tenant specs.
func ValidateSpecs(specs []Spec) error {
	if len(specs) == 0 {
		return fmt.Errorf("tenant: no tenants declared")
	}
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("tenant: spec %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("tenant: duplicate tenant %q", s.Name)
		}
		seen[s.Name] = true
		if !(s.SLODelay >= 0) || math.IsInf(s.SLODelay, 1) {
			return fmt.Errorf("tenant: %q sloDelay not in [0,+Inf)", s.Name)
		}
		if !(s.Share >= 0) || math.IsInf(s.Share, 1) {
			return fmt.Errorf("tenant: %q share not in [0,+Inf)", s.Name)
		}
		if s.QueueSize < 0 {
			return fmt.Errorf("tenant: %q negative queueSize", s.Name)
		}
	}
	return nil
}

// GroupSpecs partitions tenants into provisioning groups by SLO
// compatibility. Tenants with explicit SLOs are sorted ascending by
// (SLODelay, Name) and greedily merged: a tenant joins the open group
// while its SLO is within tolerance× the group's first (smallest) member
// SLO, so the group can be provisioned against that smallest SLO and
// every member's target is met conservatively. Tenants with the default
// SLO (0) always form their own final group — merging them with an
// explicit-SLO group would silently change the default pipeline.
//
// The result is deterministic: groups are ordered by ascending SLO with
// the default group last, and members within a group are ordered by
// (SLODelay, Name).
func GroupSpecs(specs []Spec, tolerance float64) [][]Spec {
	if tolerance < 1 {
		tolerance = DefaultSLOTolerance
	}
	var explicit, defaults []Spec
	for _, s := range specs {
		if s.SLODelay > 0 {
			explicit = append(explicit, s)
		} else {
			defaults = append(defaults, s)
		}
	}
	sortSpecs := func(xs []Spec) {
		sort.Slice(xs, func(i, j int) bool {
			//harmony:allow floateq grouping tie-break must be exact for a deterministic order
			if xs[i].SLODelay != xs[j].SLODelay {
				return xs[i].SLODelay < xs[j].SLODelay
			}
			return xs[i].Name < xs[j].Name
		})
	}
	sortSpecs(explicit)
	sortSpecs(defaults)

	var groups [][]Spec
	for _, s := range explicit {
		if n := len(groups); n > 0 {
			first := groups[n-1][0].SLODelay
			if s.SLODelay <= first*tolerance {
				groups[n-1] = append(groups[n-1], s)
				continue
			}
		}
		groups = append(groups, []Spec{s})
	}
	if len(defaults) > 0 {
		groups = append(groups, defaults)
	}
	return groups
}
