package policy

// Greedy is the extracted historical strategy — the exact comparison
// sequences that used to live inline in viprip.Manager.AddRIP,
// viprip.Manager.pickSwitchForVIP, and the global manager's
// pickTransferTarget / coldestPodWithRoom / pickDonorPod scans. It is
// the default policy, and TestGreedyPolicyByteIdentical pins the
// experiment tables it produces against the pre-refactor output, so
// the comparison structure here (strict <, the 1e-9 near-tie epsilon,
// first-wins ordering) must not be "cleaned up".
type Greedy struct {
	stats *Stats
}

// NewGreedy returns the extracted greedy policy.
func NewGreedy(stats *Stats) *Greedy { return &Greedy{stats: stats} }

func init() {
	Register(DefaultName, func(seed int64) Bundle {
		st := &Stats{}
		g := NewGreedy(st)
		return Bundle{Name: DefaultName, Placement: g, Steering: g, Stats: st}
	})
}

// Name implements Placement and Steering.
func (g *Greedy) Name() string { return DefaultName }

// VIPSwitch: least pressure, strict-< first-wins — the historical
// pickSwitchForVIP scan (the score function lives with the caller).
func (g *Greedy) VIPSwitch(d Decision) int { return argmin(d, g.stats) }

// VIPForRIP: lowest combined pressure with the historical near-tie
// break toward the VIP with the fewest RIPs, so an application's
// instances spread across its VIPs.
func (g *Greedy) VIPForRIP(d Decision) int {
	best := -1
	bestLoad := 0.0
	bestGroup := 0
	for i := 0; i < d.N; i++ {
		load := d.probe(i, g.stats)
		group := 0
		if d.Group != nil {
			group = d.Group(i)
		}
		better := best < 0 ||
			load < bestLoad-1e-9 ||
			(load < bestLoad+1e-9 && group < bestGroup)
		if better {
			best, bestLoad, bestGroup = i, load, group
		}
	}
	return best
}

// TransferTarget: least-utilized feasible switch.
func (g *Greedy) TransferTarget(d Decision) int { return argmin(d, g.stats) }

// DeployPod: coldest pod with room (the caller filtered by the
// underload threshold and slice fit).
func (g *Greedy) DeployPod(d Decision) int { return argmin(d, g.stats) }

// DonorPod: least-utilized underloaded pod.
func (g *Greedy) DonorPod(d Decision) int { return argmin(d, g.stats) }
