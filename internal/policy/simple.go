package policy

// RoundRobin rotates through the feasible candidates of each decision
// site independently, probing no state at all: the cheapest possible
// strategy and the tournament's lower anchor. The cursor advances once
// per decision, so the choice sequence is a pure function of the call
// sequence.
type RoundRobin struct {
	cursor [numKinds]uint64
}

// NewRoundRobin returns a round-robin policy with all cursors at zero.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

func init() {
	Register("round-robin", func(seed int64) Bundle {
		rr := NewRoundRobin()
		return Bundle{Name: "round-robin", Placement: rr, Steering: rr, Stats: &Stats{}}
	})
}

// Name implements Placement and Steering.
func (r *RoundRobin) Name() string { return "round-robin" }

func (r *RoundRobin) pick(k Kind, d Decision) int {
	i := int(r.cursor[k] % uint64(d.N))
	r.cursor[k]++
	return i
}

func (r *RoundRobin) VIPSwitch(d Decision) int      { return r.pick(KindVIPSwitch, d) }
func (r *RoundRobin) VIPForRIP(d Decision) int      { return r.pick(KindVIPForRIP, d) }
func (r *RoundRobin) TransferTarget(d Decision) int { return r.pick(KindTransferTarget, d) }
func (r *RoundRobin) DeployPod(d Decision) int      { return r.pick(KindDeployPod, d) }
func (r *RoundRobin) DonorPod(d Decision) int       { return r.pick(KindDonorPod, d) }

// FirstFit always takes the first feasible candidate: packing, not
// balancing. E12's first-fit row sets it as the VIP/RIP manager's
// placement. It is not registered as a tournament competitor (it
// optimizes switch count, not balance, so racing it on satisfaction is
// uninteresting).
type FirstFit struct{}

// Name implements Placement and Steering.
func (FirstFit) Name() string { return "first-fit" }

func (FirstFit) VIPSwitch(d Decision) int      { return 0 }
func (FirstFit) VIPForRIP(d Decision) int      { return 0 }
func (FirstFit) TransferTarget(d Decision) int { return 0 }
func (FirstFit) DeployPod(d Decision) int      { return 0 }
func (FirstFit) DonorPod(d Decision) int       { return 0 }

// Omniscient performs a fresh full scan on every decision and takes
// the strictly least-loaded candidate — perfect information at maximum
// probe cost, the tournament's quality anchor. It differs from Greedy
// in VIPForRIP: no near-tie epsilon and no group spreading, just the
// minimum.
type Omniscient struct {
	stats *Stats
}

// NewOmniscient returns the full-scan least-loaded policy.
func NewOmniscient(stats *Stats) *Omniscient { return &Omniscient{stats: stats} }

func init() {
	Register("omniscient", func(seed int64) Bundle {
		st := &Stats{}
		o := NewOmniscient(st)
		return Bundle{Name: "omniscient", Placement: o, Steering: o, Stats: st}
	})
}

// Name implements Placement and Steering.
func (o *Omniscient) Name() string { return "omniscient" }

func (o *Omniscient) VIPSwitch(d Decision) int      { return argmin(d, o.stats) }
func (o *Omniscient) VIPForRIP(d Decision) int      { return argmin(d, o.stats) }
func (o *Omniscient) TransferTarget(d Decision) int { return argmin(d, o.stats) }
func (o *Omniscient) DeployPod(d Decision) int      { return argmin(d, o.stats) }
func (o *Omniscient) DonorPod(d Decision) int       { return argmin(d, o.stats) }
