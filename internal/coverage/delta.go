package coverage

import (
	"sort"

	"ghostspec/internal/hyp"
)

// Delta is the serializable form of an aggregate's raw observations —
// what a sync-directory worker writes to its coverage.json so coverage
// merging can cross a process boundary. It is a plain-data mirror of the
// Aggregator's maps with a deterministic field order (sorted slices,
// no maps), so equal aggregates export byte-equal JSON.
//
// Workers rewrite their *cumulative* delta each time: the merge of
// every worker's latest file is then idempotent (a rewrite replaces
// the worker's previous contribution instead of double-counting it).
type Delta struct {
	Outcomes       []OutcomeCount `json:"outcomes,omitempty"`
	AbortsMapped   int            `json:"aborts_mapped,omitempty"`
	AbortsInjected int            `json:"aborts_injected,omitempty"`
	GuestOps       []GuestOpCount `json:"guest_ops,omitempty"`
	Traps          int            `json:"traps,omitempty"`
}

// OutcomeCount is one handler-outcome observation count.
type OutcomeCount struct {
	HC    hyp.HC    `json:"hc"`
	Ret   hyp.Errno `json:"ret"`
	Count int       `json:"count"`
}

// GuestOpCount is one guest-op-kind observation count.
type GuestOpCount struct {
	Kind  hyp.GuestOpKind `json:"kind"`
	Count int             `json:"count"`
}

// Export snapshots the aggregate as a Delta.
func (a *Aggregator) Export() Delta {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := Delta{
		AbortsMapped:   a.aborts[abortMapped],
		AbortsInjected: a.aborts[abortInjected],
		Traps:          a.traps,
	}
	for k, v := range a.outcomes {
		if v > 0 {
			d.Outcomes = append(d.Outcomes, OutcomeCount{HC: k.HC, Ret: k.Ret, Count: v})
		}
	}
	sort.Slice(d.Outcomes, func(i, j int) bool {
		if d.Outcomes[i].HC != d.Outcomes[j].HC {
			return d.Outcomes[i].HC < d.Outcomes[j].HC
		}
		return d.Outcomes[i].Ret < d.Outcomes[j].Ret
	})
	for k, v := range a.guestOps {
		if v > 0 {
			d.GuestOps = append(d.GuestOps, GuestOpCount{Kind: k, Count: v})
		}
	}
	sort.Slice(d.GuestOps, func(i, j int) bool { return d.GuestOps[i].Kind < d.GuestOps[j].Kind })
	return d
}

// AbsorbDelta folds a serialized delta into the aggregate, returning
// the novelty (keys the aggregate had never seen) the same way Absorb
// does for a live tracker.
func (a *Aggregator) AbsorbDelta(d Delta) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	novelty := 0
	for _, oc := range d.Outcomes {
		k := Outcome{HC: oc.HC, Ret: oc.Ret}
		if a.outcomes[k] == 0 && oc.Count > 0 {
			novelty++
		}
		a.outcomes[k] += oc.Count
	}
	if a.aborts[abortMapped] == 0 && d.AbortsMapped > 0 {
		novelty++
	}
	a.aborts[abortMapped] += d.AbortsMapped
	if a.aborts[abortInjected] == 0 && d.AbortsInjected > 0 {
		novelty++
	}
	a.aborts[abortInjected] += d.AbortsInjected
	for _, gc := range d.GuestOps {
		if a.guestOps[gc.Kind] == 0 && gc.Count > 0 {
			novelty++
		}
		a.guestOps[gc.Kind] += gc.Count
	}
	a.traps += d.Traps
	return novelty
}

// SupersetOf reports whether every coverage key observed in o (with a
// positive count) is also observed in d — the assertion that a sync
// directory's merged coverage subsumes each worker's.
func (d Delta) SupersetOf(o Delta) bool {
	have := make(map[OutcomeCount]bool, len(d.Outcomes))
	for _, oc := range d.Outcomes {
		if oc.Count > 0 {
			have[OutcomeCount{HC: oc.HC, Ret: oc.Ret}] = true
		}
	}
	for _, oc := range o.Outcomes {
		if oc.Count > 0 && !have[OutcomeCount{HC: oc.HC, Ret: oc.Ret}] {
			return false
		}
	}
	if o.AbortsMapped > 0 && d.AbortsMapped == 0 {
		return false
	}
	if o.AbortsInjected > 0 && d.AbortsInjected == 0 {
		return false
	}
	guest := make(map[hyp.GuestOpKind]bool, len(d.GuestOps))
	for _, gc := range d.GuestOps {
		if gc.Count > 0 {
			guest[gc.Kind] = true
		}
	}
	for _, gc := range o.GuestOps {
		if gc.Count > 0 && !guest[gc.Kind] {
			return false
		}
	}
	return true
}

// Keys counts the distinct positive coverage keys in the delta.
func (d Delta) Keys() int {
	n := len(d.Outcomes) + len(d.GuestOps)
	if d.AbortsMapped > 0 {
		n++
	}
	if d.AbortsInjected > 0 {
		n++
	}
	return n
}
