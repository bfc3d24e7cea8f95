package core

import "megadc/internal/lbswitch"

// PadRIPIndex interns rips into p's RIP index ahead of any real RIP, so
// external tests can shift every real RIP index (TestInterningOrderInvariance).
func PadRIPIndex(p *Platform, rips []lbswitch.RIP) {
	for _, rip := range rips {
		p.ripIx.Intern(rip)
	}
}
