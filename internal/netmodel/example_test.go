package netmodel_test

import (
	"fmt"

	"megadc/internal/ids"
	"megadc/internal/ipv4"
	"megadc/internal/netmodel"
)

// Route advertisement with AS-path padding — the mechanics behind both
// selective VIP exposure (no route changes) and the naive baseline.
// VIPs are named by handle; the platform takes handles and addresses
// from its lbswitch.Fabric, here a one-entry table stands in.
func Example() {
	addrs := []netmodel.VIPAddr{ipv4.MustParse("203.0.113.1")}
	n := netmodel.New(func(h ids.Index) netmodel.VIPAddr { return addrs[h] })
	const vip1 ids.Index = 0
	ar := n.AddAccessRouter("isp-a")
	br := n.AddBorderRouter()
	l1, _ := n.AddLink(ar.ID, br.ID, 1000, 1)
	l2, _ := n.AddLink(ar.ID, br.ID, 1000, 1)

	n.Advertise(vip1, l1.ID, false)
	n.Advertise(vip1, l2.ID, true) // padded backup: reachability, no traffic
	n.SetVIPTraffic(vip1, 600)
	fmt.Printf("primary %.0f Mbps, padded backup %.0f Mbps\n", l1.LoadMbps(), l2.LoadMbps())

	// Unpadding the backup (the naive TE transition) splits the traffic.
	n.SetPadded(vip1, l2.ID, false)
	fmt.Printf("after unpad: %.0f / %.0f, route updates so far: %d\n",
		l1.LoadMbps(), l2.LoadMbps(), n.RouteUpdates)
	// Output:
	// primary 600 Mbps, padded backup 0 Mbps
	// after unpad: 300 / 300, route updates so far: 3
}

// The hose-model fabric: admissibility is per-host, nothing else.
func ExampleHoseFabric() {
	h := netmodel.NewHoseFabric(1000)
	h.Offer(netmodel.Flow{Src: 1, Dst: 2, Mbps: 700})
	h.Offer(netmodel.Flow{Src: 3, Dst: 2, Mbps: 400})
	ok, bad := h.Admissible()
	fmt.Printf("admissible: %v (host %d over its hose)\n", ok, bad[0])
	// Output:
	// admissible: false (host 2 over its hose)
}
