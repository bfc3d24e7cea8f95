package netmodel

import "megadc/internal/ids"

// testNet is a Network with a test-local address book, so the tests can
// name VIPs by address: handles are assigned on first sight, like the
// platform's fabric assigns them on first placement. The address-taking
// methods shadow the handle-taking ones of the embedded Network.
type testNet struct {
	*Network
	ix    map[VIPAddr]ids.Index
	addrs []VIPAddr
}

func newTestNet() *testNet {
	t := &testNet{ix: make(map[VIPAddr]ids.Index)}
	t.Network = New(func(h ids.Index) VIPAddr { return t.addrs[h] })
	return t
}

// h returns vip's handle, assigning the next one on first sight.
func (t *testNet) h(vip VIPAddr) ids.Index {
	if h, ok := t.ix[vip]; ok {
		return h
	}
	h := ids.Index(len(t.addrs))
	t.ix[vip] = h
	t.addrs = append(t.addrs, vip)
	return h
}

func (t *testNet) Advertise(vip VIPAddr, link LinkID, padded bool) error {
	return t.Network.Advertise(t.h(vip), link, padded)
}

func (t *testNet) Withdraw(vip VIPAddr, link LinkID) error {
	return t.Network.Withdraw(t.h(vip), link)
}

func (t *testNet) SetPadded(vip VIPAddr, link LinkID, padded bool) error {
	return t.Network.SetPadded(t.h(vip), link, padded)
}

func (t *testNet) SetVIPTraffic(vip VIPAddr, mbps float64) error {
	return t.Network.SetVIPTraffic(t.h(vip), mbps)
}

func (t *testNet) VIPTraffic(vip VIPAddr) float64 { return t.Network.VIPTraffic(t.h(vip)) }

func (t *testNet) ActiveLinks(vip VIPAddr) []LinkID { return t.Network.ActiveLinks(t.h(vip)) }

func (t *testNet) AllLinks(vip VIPAddr) []LinkID { return t.Network.AllLinks(t.h(vip)) }

func (t *testNet) VIPsOnLink(link LinkID) []VIPAddr {
	var out []VIPAddr
	for _, h := range t.Network.VIPsOnLink(link) {
		out = append(out, t.addrs[h])
	}
	return out
}

// keys returns the link's share keys as addresses.
func (t *testNet) keys(l *Link) []VIPAddr {
	var out []VIPAddr
	for _, h := range l.shareKeys {
		out = append(out, t.addrs[h])
	}
	return out
}
