package exp

import (
	"fmt"

	"megadc/internal/dnsctl"
	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/sim"
)

// E6Row is one violator-fraction configuration of the drain experiment.
type E6Row struct {
	ViolatorFrac   float64
	DrainSeconds   float64 // time from exposure-stop until zero active sessions; -1 if never within horizon
	ResidualConns  int     // sessions still bound at the horizon (would be broken by a forced transfer)
	SessionsServed int
}

// E6Result records the VIP-transfer drain experiment.
type E6Result struct {
	TTL  float64
	Rows []E6Row
}

// RunE6 measures the Section IV-B drain: after DNS stops exposing a VIP,
// how long until no TCP session uses it (the "pause" required for a
// dynamic VIP transfer), as a function of the TTL-violating client
// fraction. Violators keep connecting long past the TTL, so the pause
// may never come and the manager must force the transfer, breaking them.
func RunE6(o Options) (*metrics.Table, *E6Result, error) {
	horizon := 1200.0
	arrivalRate := 10.0
	meanSession := 30.0
	ttl := 60.0
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}

	res := &E6Result{TTL: ttl}
	tb := metrics.NewTable("E6 — VIP drain time vs TTL-violator fraction",
		"violator frac", "drain s", "residual conns @horizon", "sessions")

	for _, f := range fracs {
		row, err := runDrain(o.Seed, ttl, f, arrivalRate, meanSession, horizon)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, row)
		drain := fmt.Sprintf("%.4g", row.DrainSeconds)
		if row.DrainSeconds < 0 {
			drain = "never (forced)"
		}
		tb.AddRow(f, drain, row.ResidualConns, row.SessionsServed)
	}
	return tb, res, nil
}

func runDrain(seed int64, ttl, violatorFrac, arrivalRate, meanSession, horizon float64) (E6Row, error) {
	eng := sim.New(seed)
	dns := dnsctl.New(ttl)
	const app = 1
	const hot, otherVIP = 0, 1 // VIP handles
	hotAddr, otherAddr := ipv4.MustParse("203.0.113.1"), ipv4.MustParse("203.0.113.2")
	dns.Register(app, hotAddr, hot, 1)
	dns.Register(app, otherAddr, otherVIP, 1)
	pop, err := dnsctl.NewClientPopulation(dns, app, 1000, violatorFrac, horizon*2, eng.Rand())
	if err != nil {
		return E6Row{}, err
	}
	sw := lbswitch.NewSwitch(0, lbswitch.CatalystCSM())
	other := lbswitch.NewSwitch(1, lbswitch.CatalystCSM())
	sw.AddVIP(hotAddr, app)
	sw.AddRIP(hotAddr, ipv4.MustParse("10.0.0.1"), 1)
	other.AddVIP(otherAddr, app)
	other.AddRIP(otherAddr, ipv4.MustParse("10.0.0.2"), 1)

	row := E6Row{ViolatorFrac: violatorFrac, DrainSeconds: -1}
	stopAt := 300.0 // exposure stops here
	eng.At(stopAt, func() {
		dns.SetWeight(app, hotAddr, 0)
	})

	var arrive func()
	arrive = func() {
		if eng.Now() >= horizon {
			return
		}
		vip, err := pop.Arrive(eng.Now(), eng.Rand())
		if err == nil {
			target, addr := sw, hotAddr
			if vip == otherVIP {
				target, addr = other, otherAddr
			}
			if id, _, _, err := target.OpenConn(addr, eng.Rand()); err == nil {
				row.SessionsServed++
				dur := eng.Rand().ExpFloat64() * meanSession
				eng.After(dur, func() { target.CloseConn(id) })
			}
		}
		eng.After(eng.Rand().ExpFloat64()/arrivalRate, arrive)
	}
	eng.At(0, arrive)

	// Sample for the first pause after exposure stops.
	eng.Every(stopAt+1, 1, func() bool {
		if row.DrainSeconds < 0 && sw.VIPConns(hotAddr) == 0 {
			row.DrainSeconds = eng.Now() - stopAt
		}
		return eng.Now() < horizon
	})
	eng.At(horizon, func() {
		row.ResidualConns = sw.VIPConns(hotAddr)
	})
	eng.RunUntil(horizon)
	return row, nil
}
