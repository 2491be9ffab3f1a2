package ghost

import (
	"fmt"

	"ghostspec/internal/hyp"
)

// Checkpoint is a value snapshot of the recorder's ghost abstraction:
// the shared state, the host-table footprint, and the failure list as
// of the capture. Capturing the failures matters for fault detection
// under snapshots: boot-layout alarms fire exactly once, at Attach —
// restoring a checkpoint taken after boot reinstates them, so every
// forked execution still reports the boot bug instead of only the
// first. A checkpoint is immutable pure data and restores onto any
// recorder of an identically configured system, which is how corpus
// parents captured by one worker fork on another.
type Checkpoint struct {
	shared    *State
	footprint PageSet
	failures  []Failure
	guests    map[hyp.Handle]bool
}

// Checkpoint captures the recorder's current abstraction. The system
// must be quiescent (no trap in flight).
func (r *Recorder) Checkpoint() *Checkpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Checkpoint{
		shared:    r.shared.Clone(),
		footprint: r.hostFootprint.Clone(),
		failures:  append([]Failure(nil), r.failures...),
		guests:    make(map[hyp.Handle]bool),
	}
	for h := range r.shared.Guests {
		c.guests[h] = true
	}
	return c
}

// RestoreCheckpoint rewinds the recorder to a captured abstraction.
// Per-CPU trap state is discarded (no trap survives a restore; the
// recording buffers stay for reuse) and guest abstraction caches for
// VMs absent from the checkpoint are dropped; every other cache
// self-heals through the frame generations the memory restore bumped —
// entries over untouched frames stay warm — or, for the VM table,
// through re-reading every field.
func (r *Recorder) RestoreCheckpoint(c *Checkpoint) {
	r.mu.Lock()
	r.shared = c.shared.Clone()
	r.hostFootprint = c.footprint.Clone()
	r.failures = append(r.failures[:0:0], c.failures...)
	r.sepGen++
	r.mu.Unlock()

	for _, rec := range r.cpus {
		rec.active = false
	}

	r.gcMu.Lock()
	for h := range r.guestCaches {
		if !c.guests[h] {
			delete(r.guestCaches, h)
		}
	}
	r.gcMu.Unlock()
}

// SharedState returns a copy (State.Clone) of the recorder's shared ghost
// state, for the snapshot conformance differ.
func (r *Recorder) SharedState() *State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shared.Clone()
}

// DiffStates structurally compares two ghost states and returns
// human-readable mismatch descriptions, at most max. It is the ghost
// half of the snapshot conformance differ: a restored child's
// abstraction diffed against a freshly-booted-and-replayed system's
// must come back empty.
func DiffStates(a, b *State, max int) []string {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < max {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	diffMapping := func(what string, ma, mb Mapping) {
		if EqualMappings(ma, mb) {
			return
		}
		for _, d := range DiffMappings(ma, mb) {
			add("%s: %s", what, d)
		}
	}
	diffMapping("pkvm mapping", a.Pkvm.PGT.Mapping, b.Pkvm.PGT.Mapping)
	if !a.Pkvm.PGT.Footprint.Equal(b.Pkvm.PGT.Footprint) {
		add("pkvm footprint: %v vs %v", a.Pkvm.PGT.Footprint, b.Pkvm.PGT.Footprint)
	}
	diffMapping("host annotations", a.Host.Annot, b.Host.Annot)
	diffMapping("host shared", a.Host.Shared, b.Host.Shared)
	if !a.VMs.Equal(b.VMs) {
		add("vm table: %d vs %d entries, reclaim %v vs %v",
			len(a.VMs.Table), len(b.VMs.Table), a.VMs.Reclaim, b.VMs.Reclaim)
	}
	for h, ga := range a.Guests {
		gb, ok := b.Guests[h]
		if !ok {
			add("guest %v: present vs absent", h)
			continue
		}
		diffMapping(fmt.Sprintf("guest %v mapping", h), ga.PGT.Mapping, gb.PGT.Mapping)
		if !ga.PGT.Footprint.Equal(gb.PGT.Footprint) {
			add("guest %v footprint: %v vs %v", h, ga.PGT.Footprint, gb.PGT.Footprint)
		}
	}
	for h := range b.Guests {
		if _, ok := a.Guests[h]; !ok {
			add("guest %v: absent vs present", h)
		}
	}
	for cpu, la := range a.Locals {
		lb, ok := b.Locals[cpu]
		if !ok {
			add("cpu %d locals: present vs absent", cpu)
			continue
		}
		if !la.Equal(*lb) {
			add("cpu %d locals differ", cpu)
		}
	}
	for cpu := range b.Locals {
		if _, ok := a.Locals[cpu]; !ok {
			add("cpu %d locals: absent vs present", cpu)
		}
	}
	return out
}
