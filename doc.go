// Package megadc is a reproduction of "Mega Data Center for Elastic
// Internet Applications" (Hangwei Qian and Michael Rabinovich, IPPS
// 2014): a scalable architecture for datacenter-wide resource management
// of elastic Internet applications in a ~300,000-server data center.
//
// The library lives under internal/: the paper's contribution (the
// two-level hierarchical resource management platform with its six
// control knobs) is internal/core; every substrate it depends on — the
// discrete-event engine, the compute cluster, the L4 load-balancing
// switch fabric, the access network, DNS, workload generation, the
// placement controller, the VIP/RIP manager, the two-LB-layer extension,
// and the comparison baselines — is its own package. See DESIGN.md for
// the full system inventory and the per-experiment index, EXPERIMENTS.md
// for paper-vs-measured results, and README.md to get started.
//
// The root package carries the paper-claim and end-to-end tests plus
// micro-benchmarks of the hot paths (bench_test.go, ext_bench_test.go).
// Committed performance numbers come from the separate bench/ module.
package megadc
