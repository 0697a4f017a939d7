// Package chaos is the fault-injection soak harness: it wires the
// layers this repo reproduces — netsim's degradable hub, the tcpip
// stack, and the issl secure layer — into an end-to-end service and
// batters it with the failures the paper's lab wire produced for free
// (burst loss, bit rot, duplicate frames, someone unplugging the hub,
// the watchdog rebooting the board mid-session).
//
// The package itself exports the shared fault schedule, SoakPlan. Its
// tests hold the harness's one service, echoServer, a secure echo
// endpoint whose SessionCache plays the role of the RMC2000's
// `protected` storage: Reset models a watchdog reboot — every live
// connection (ordinary RAM) dies, the session cache survives — so a
// client reconnecting through issl.Dialer lands an abbreviated
// resumption handshake instead of a full one, exactly the recovery the
// paper's deployment depended on.
//
// Determinism contract: every fault decision a FaultPlan makes is
// reproducible from its seed (see netsim's fault schedule tests). A
// full soak additionally depends on wall-clock TCP timing, so its
// byte-level schedule is not bit-identical across runs — the invariant
// the soak asserts is integrity and bounded recovery, not replay.
package chaos

import "repro/internal/netsim"

// SoakPlan is the harness's canonical degraded-wire schedule: light
// steady loss with Gilbert–Elliott bursts, a little bit rot, duplicate
// frames and bounded reordering — the lab 10Base-T segment on a bad
// day. The soak tests here and the loadgen capacity soak share it so
// "under faults" means the same wire everywhere; seed picks the
// (reproducible) schedule.
func SoakPlan(seed uint64) *netsim.FaultPlan {
	return &netsim.FaultPlan{
		Seed:        seed,
		LossGoodPct: 1, LossBadPct: 20, GoodToBadPct: 2, BadToGoodPct: 40,
		CorruptPct: 2, DupPct: 5, ReorderPct: 5, ReorderDepth: 4,
	}
}
