package sim

import (
	"context"
	"fmt"
	"reflect"
)

// A multicore group runs several configurations that differ only in their
// controllers as one simulation. The lead's Multicore steps the die; at
// each sampling boundary every other member's controllers step on the
// same observations and the same sample power. While a member commands
// exactly the actuation the lead applied, its solo run would have
// simulated exactly the lead's cycles, so it shares the lead's result. A
// member whose actuation differs leaves and is re-run alone. See
// DESIGN.md, "Multicore groups".

// groupMember is one non-lead configuration of a multicore group.
type groupMember struct {
	ctl    controls
	shared bool // still on the lead's trajectory
}

// multicoreGroupExcluded lists the MulticoreConfig fields that may differ
// within a multicore group: the controllers.
var multicoreGroupExcluded = map[string]bool{
	"Managers": true,
	"DVFS":     true,
	"Budget":   true,
}

// MulticoreGroupable reports whether cfg may join a multicore group led by
// lead: the two are equal in every field but Managers, DVFS and Budget,
// and their controllers sample at the same interval.
func MulticoreGroupable(lead, cfg *MulticoreConfig) bool {
	return sampleInterval(lead) == sampleInterval(cfg) &&
		fingerprint(reflect.ValueOf(*lead), multicoreGroupExcluded) ==
			fingerprint(reflect.ValueOf(*cfg), multicoreGroupExcluded)
}

// NewMulticoreGroup builds the simulation of cfgs[0], the lead, with every
// other config riding along as a group member. Every config must be
// MulticoreGroupable with the lead and own its controllers. Step, Run and
// Finish act on the lead's run; InGroup tells which members still share
// it.
func NewMulticoreGroup(cfgs []MulticoreConfig) (*Multicore, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: empty multicore group")
	}
	for i := 1; i < len(cfgs); i++ {
		if !MulticoreGroupable(&cfgs[0], &cfgs[i]) {
			return nil, fmt.Errorf("sim: multicore group member %d differs from the lead beyond its controllers", i)
		}
	}
	s, err := NewMulticore(cfgs[0])
	if err != nil {
		return nil, err
	}
	s.members = make([]groupMember, len(cfgs)-1)
	for i := range s.members {
		ctl, _, err := newControls(&cfgs[i+1], s.nc)
		if err != nil {
			return nil, fmt.Errorf("sim: multicore group member %d: %w", i+1, err)
		}
		s.members[i] = groupMember{ctl: ctl, shared: true}
	}
	return s, nil
}

// InGroup reports whether config i of the group (0 is the lead) has
// commanded the lead's actuation at every sample so far.
func (s *Multicore) InGroup(i int) bool {
	return i == 0 || s.members[i-1].shared
}

// RunMulticoreGroup runs cfgs as one multicore group (see
// NewMulticoreGroup) and returns one result per config, each
// byte-identical to what RunMulticore returns for it. A member still in
// the group at the end gets a copy of the lead's result under its own
// policy name; a member that left is re-run alone, which costs at most
// the cycles it had shared.
func RunMulticoreGroup(ctx context.Context, cfgs []MulticoreConfig) ([]*MulticoreResult, error) {
	s, err := NewMulticoreGroup(cfgs)
	if err != nil {
		return nil, err
	}
	lead, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]*MulticoreResult, len(cfgs))
	out[0] = lead
	for i := 1; i < len(cfgs); i++ {
		if s.InGroup(i) {
			out[i] = lead.clone()
			out[i].Policy = policyName(&cfgs[i])
		} else if out[i], err = RunMulticore(ctx, cfgs[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// clone returns a deep copy of r.
func (r *MulticoreResult) clone() *MulticoreResult {
	c := *r
	c.PerCore = append([]CoreResult(nil), r.PerCore...)
	for i := range c.PerCore {
		c.PerCore[i].Blocks = append([]BlockResult(nil), r.PerCore[i].Blocks...)
	}
	return &c
}
