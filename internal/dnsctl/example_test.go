package dnsctl_test

import (
	"fmt"
	"math/rand"

	"megadc/internal/dnsctl"
	"megadc/internal/ipv4"
)

// Selective VIP exposure (the paper's knob A): shifting DNS weights
// steers new clients between an application's VIPs without any route
// updates.
func Example() {
	dns := dnsctl.New(60) // 60-second TTL
	const app = 1
	const hotVIP, coldVIP = 0, 1             // handles, as the platform's fabric assigns them
	hotAddr := ipv4.MustParse("203.0.113.1") // advertised on the hot link
	dns.Register(app, hotAddr, hotVIP, 1)
	dns.Register(app, ipv4.MustParse("203.0.113.2"), coldVIP, 1)

	// The hot link overloads: stop exposing its VIP.
	dns.SetWeight(app, hotAddr, 0)

	rng := rand.New(rand.NewSource(1))
	hot := 0
	for i := 0; i < 100; i++ {
		vip, _ := dns.Resolve(app, rng)
		if vip == hotVIP {
			hot++
		}
	}
	fmt.Printf("new resolutions to the hot link: %d/100\n", hot)
	_, shares, _ := dns.ExpectedShares(app)
	fmt.Printf("steady-state shares: %v\n", shares)
	// Output:
	// new resolutions to the hot link: 0/100
	// steady-state shares: [0 1]
}
