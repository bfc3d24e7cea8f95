package core

import (
	"math/rand"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
)

// stepRound runs one control round as Start schedules it: the global
// step, then every pod step.
func stepRound(p *Platform) {
	p.Global.Step()
	for _, pm := range p.pods {
		pm.Step()
	}
}

// TestManagerStepsAllocFree pins a converged platform's control steps —
// a pod step and a global step that issue no action — at zero heap
// allocations, and checks that a round with nothing changed since the
// last one re-evaluates no knob-F candidate and visits no RIP group in
// the inter-pod scan.
func TestManagerStepsAllocFree(t *testing.T) {
	p, err := BuildScalePlatform(ScaleSpecFor(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stepRound(p) // grows the step scratch and memoizes every candidate
	if p.work.weightEvals == 0 {
		t.Fatal("the first round evaluated no knob-F candidate: the check below would be vacuous")
	}
	if n := p.Eng.Pending(); n != 0 {
		t.Fatalf("the converged platform's round scheduled %d events, want no action", n)
	}
	p.work = managerWork{}
	stepRound(p)
	if p.work != (managerWork{}) {
		t.Fatalf("a round with nothing changed did work %+v, want none", p.work)
	}
	pm := p.pods[0]
	if n := testing.AllocsPerRun(20, pm.Step); n != 0 {
		t.Errorf("a pod step that issues no action allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(20, p.Global.Step); n != 0 {
		t.Errorf("a global step that issues no action allocates %v times, want 0", n)
	}
	if n := p.Eng.Pending(); n != 0 {
		t.Fatalf("the measured steps scheduled %d events, want no action", n)
	}
}

// TestPropertyDenseClaimsMatchMap runs random claim, handover and
// release sequences through the claim table and checks, after every
// operation, that held answers for every key exactly as a probe of the
// claim map does, and that the per-entity counts equal the map's.
func TestPropertyDenseClaimsMatchMap(t *testing.T) {
	type held struct {
		k   claimKey
		tok uint64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c claimTable
		var keys []claimKey
		for owner := -1; owner <= 2; owner++ {
			for kind := claimServer; kind <= claimDrain; kind++ {
				for id := -1; id <= 6; id++ {
					keys = append(keys, claimOf(owner, kind, id))
				}
			}
		}
		var toks []held // every token handed out, live or superseded
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(toks) == 0: // claim, handing a held key over
				k := keys[rng.Intn(len(keys))]
				toks = append(toks, held{k, c.claim(k)})
			default: // release with a random token, possibly superseded
				i := rng.Intn(len(toks))
				c.release(toks[i].k, toks[i].tok)
				toks = append(toks[:i], toks[i+1:]...)
			}
			counts := map[[2]int64]int32{}
			for k := range c.m {
				if k.id >= 0 {
					counts[[2]int64{int64(k.kind), k.id}]++
				}
			}
			for _, k := range keys {
				_, want := c.m[k]
				if got := c.held(k); got != want {
					t.Fatalf("seed %d op %d: held(%+v) = %v, claim map says %v", seed, op, k, got, want)
				}
				if k.id < 0 {
					continue
				}
				var n int32
				if dense := c.n[k.kind]; k.id < int64(len(dense)) {
					n = dense[k.id]
				}
				if want := counts[[2]int64{int64(k.kind), k.id}]; n != want {
					t.Fatalf("seed %d op %d: kind %d id %d counts %d holders, claim map has %d", seed, op, k.kind, k.id, n, want)
				}
			}
		}
	}
}

// weightSkipPlatform builds a knob-F-only platform whose pod 0 holds
// four instances of one single-VIP app, weights 1 and CPU slices 1, 1,
// 1 and 1.6 — a redistribution just inside the deadband — and whose pod
// 1 holds a fifth, with a 3-CPU slice. One pod-0 step memoizes the VIP
// as a no-op.
func weightSkipPlatform(t *testing.T) (p *Platform, vms []cluster.VMID, vip lbswitch.VIP) {
	t.Helper()
	cfg := DefaultConfig().WithKnobs(KnobRIPWeights)
	cfg.VIPsPerApp = 1
	p, err := NewPlatform(SmallTopology(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	app, err := p.OnboardApp("skip", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pod := range []cluster.PodID{0, 0, 0, 0, 1} {
		vm, err := p.DeployInstance(app.ID, pod)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm.ID)
		if cpu := []float64{1, 1, 1, 1.6, 3}[i]; cpu != 1 {
			slice := vm.Slice
			slice.CPU = cpu
			if err := p.Cluster.ResizeVM(vm.ID, slice); err != nil {
				t.Fatal(err)
			}
		}
	}
	vip, _ = p.vipOfVM(vms[0])
	pm := p.pods[0]
	pm.Step()
	if len(pm.memos) != 1 || !pm.memos[0].noop || p.work.weightEvals != 1 {
		t.Fatalf("pod 0 memoized %+v after %d evaluations, want the one VIP as a no-op", pm.memos, p.work.weightEvals)
	}
	return p, vms, vip
}

// TestWeightSkipKeyCoversInputs changes each kind of input desiredWeights
// reads — a RIP weight, a VM's slice, a VM's server, a server's pod, the
// RIP group — by a path that moves exactly one generation of the weight
// key, such that the memoized no-op VIP now needs a redistribution. The
// audit must stay clean (the key moved, so nothing is skipped wrongly),
// and the next pod step must evaluate the VIP again and act on it.
func TestWeightSkipKeyCoversInputs(t *testing.T) {
	cases := []struct {
		name   string
		change func(t *testing.T, p *Platform, vms []cluster.VMID, vip lbswitch.VIP)
	}{
		{"weight", func(t *testing.T, p *Platform, vms []cluster.VMID, vip lbswitch.VIP) {
			home, _ := p.Fabric.HomeOf(vip)
			rip, _ := p.RIPForVM(vms[0])
			if err := p.Fabric.Switch(home).SetWeight(vip, rip, 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"resize", func(t *testing.T, p *Platform, vms []cluster.VMID, vip lbswitch.VIP) {
			slice := p.Cluster.VM(vms[3]).Slice
			slice.CPU = 3
			if err := p.Cluster.ResizeVM(vms[3], slice); err != nil {
				t.Fatal(err)
			}
		}},
		{"migrate", func(t *testing.T, p *Platform, vms []cluster.VMID, vip lbswitch.VIP) {
			dst := p.Cluster.Pod(0).Servers()[7].ID
			if err := p.Cluster.MigrateVM(vms[4], dst); err != nil {
				t.Fatal(err)
			}
		}},
		{"transfer", func(t *testing.T, p *Platform, vms []cluster.VMID, vip lbswitch.VIP) {
			if err := p.Cluster.TransferServer(p.Cluster.VM(vms[4]).Server, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove", func(t *testing.T, p *Platform, vms []cluster.VMID, vip lbswitch.VIP) {
			if err := p.RemoveInstance(vms[0]); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, vms, vip := weightSkipPlatform(t)
			tc.change(t, p, vms, vip)
			for _, v := range p.Audit().Violations {
				t.Errorf("audit after the change: %s", v)
			}
			pm := p.pods[0]
			p.work = managerWork{}
			pm.Step()
			if p.work.weightEvals != 1 {
				t.Fatalf("the step after the change evaluated %d candidates, want the VIP again", p.work.weightEvals)
			}
			if len(pm.memos) != 1 || pm.memos[0].noop {
				t.Fatalf("the step after the change left %+v, want the VIP acted on", pm.memos)
			}
		})
	}
}
