// Fault injection. The paper's wire was a real 10Base-T segment in a
// lab; the interesting failures — collision bursts, a flaky
// transceiver, someone unplugging the hub — arrive correlated, not as
// uniform coin flips. FaultPlan scripts those degradations
// deterministically: every decision comes from one seeded
// prng.Xorshift, so a chaos run is reproducible from its seed alone.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/telemetry"
)

// FaultPlan scripts the hub's misbehavior. All percentages are 0–100;
// a zero value disables that fault class. The zero plan is a clean
// wire.
type FaultPlan struct {
	// Seed drives every fault decision. Zero is remapped by the PRNG.
	Seed uint64

	// Burst loss, Gilbert–Elliott two-state model: the wire is either
	// Good or Bad; each frame first moves the state with the transition
	// probabilities, then is lost with the state's loss probability.
	// Uniform loss is the degenerate plan with both transitions at 0
	// and LossGoodPct set.
	LossGoodPct  int // loss % while in the Good state
	LossBadPct   int // loss % while in the Bad state (the burst)
	GoodToBadPct int // % chance per frame Good -> Bad
	BadToGoodPct int // % chance per frame Bad -> Good

	// CorruptPct flips one random payload bit in that % of frames —
	// the wire damage TCP and record-layer checksums exist to catch.
	CorruptPct int

	// DupPct delivers that % of frames twice, back to back.
	DupPct int

	// ReorderPct holds that % of frames back, releasing each after
	// 1..ReorderDepth subsequent transmissions (bounded reordering).
	ReorderPct   int
	ReorderDepth int // default 3, capped at 16
}

// Errors returned by the fault API.
var (
	ErrBadFaultPlan = errors.New("netsim: invalid fault plan")
	ErrUnknownPort  = errors.New("netsim: no port with that MAC")
)

func pctOK(p int) bool { return p >= 0 && p <= 100 }

// validate checks ranges and applies defaults.
func (p *FaultPlan) validate() error {
	for _, v := range []int{p.LossGoodPct, p.LossBadPct, p.GoodToBadPct,
		p.BadToGoodPct, p.CorruptPct, p.DupPct, p.ReorderPct} {
		if !pctOK(v) {
			return fmt.Errorf("%w: percentage %d outside 0..100", ErrBadFaultPlan, v)
		}
	}
	if p.ReorderDepth < 0 {
		return fmt.Errorf("%w: negative reorder depth", ErrBadFaultPlan)
	}
	if p.ReorderDepth == 0 {
		p.ReorderDepth = 3
	}
	if p.ReorderDepth > 16 {
		p.ReorderDepth = 16
	}
	return nil
}

// FaultStats is a point-in-time snapshot of the fault counters. The
// live counts are telemetry-registry counters updated atomically (see
// Hub.SetTelemetry); this struct is the read API tests and chaos
// harnesses consume.
type FaultStats struct {
	LostGood       uint64 // frames lost in the Good state
	LostBurst      uint64 // frames lost in the Bad state
	Corrupted      uint64
	Duplicated     uint64
	Reordered      uint64
	PartitionDrops uint64
	BadEntries     uint64 // Good -> Bad transitions taken
}

// heldFrame is a reordered frame waiting for its release countdown.
type heldFrame struct {
	frame   Frame
	release int // delivered when this many later sends have happened
}

// faultState is the hub's live fault machinery, guarded by Hub.mu.
// Counters live on the Hub (metrics) so they outlive the plan.
type faultState struct {
	plan FaultPlan
	rng  *prng.Xorshift
	bad  bool // Gilbert–Elliott state
	held []heldFrame
}

// SetFaultPlan installs (or, with nil, clears) a fault plan. The plan
// is copied; its PRNG and Gilbert–Elliott state reset, so installing
// the same plan twice replays the same fault schedule. Frames the old
// plan was holding for reordering are flushed onto the wire first —
// reordering delays frames, it never loses them.
func (h *Hub) SetFaultPlan(p *FaultPlan) error {
	var plan FaultPlan
	if p != nil {
		plan = *p
		if err := plan.validate(); err != nil {
			return err
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fault != nil {
		now := h.nowLocked()
		for _, hf := range h.fault.held {
			h.wireLocked(hf.frame, now)
		}
	}
	if p == nil {
		h.fault = nil
		return nil
	}
	h.fault = &faultState{plan: plan, rng: prng.NewXorshift(plan.Seed)}
	return nil
}

// FaultStats returns a snapshot of the fault counters. They accumulate
// across plans on the same hub — clearing or replacing a plan keeps
// the history, so a chaos run can install phases and audit the total.
// Each field is read atomically; no lock is taken, so it is safe to
// call mid-run (the fields may not be mutually consistent to the
// frame, which a cumulative audit does not need).
func (h *Hub) FaultStats() FaultStats {
	m := &h.metrics
	return FaultStats{
		LostGood:       m.lostGood.Value(),
		LostBurst:      m.lostBurst.Value(),
		Corrupted:      m.corrupted.Value(),
		Duplicated:     m.duplicated.Value(),
		Reordered:      m.reordered.Value(),
		PartitionDrops: m.partitionDrops.Value(),
		BadEntries:     m.badEntries.Value(),
	}
}

// PartitionPort cuts the port with the given MAC off the wire — frames
// from it and to it vanish — until heal has elapsed (heal <= 0 means
// until HealPort). Partitioning an unknown MAC is an error.
func (h *Hub) PartitionPort(mac MAC, heal time.Duration) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	known := false
	for _, p := range h.ports {
		if p.mac == mac {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("%w: %s", ErrUnknownPort, mac)
	}
	until := time.Time{} // zero: manual heal only
	if heal > 0 {
		until = h.nowLocked().Add(heal)
	}
	if h.partitions == nil {
		h.partitions = map[MAC]time.Time{}
	}
	h.partitions[mac] = until
	return nil
}

// HealPort reconnects a partitioned port immediately.
func (h *Hub) HealPort(mac MAC) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.partitions, mac)
}

// partitionedLocked checks (and lazily heals) a partition. h.mu held.
func (h *Hub) partitionedLocked(mac MAC, now time.Time) bool {
	until, ok := h.partitions[mac]
	if !ok {
		return false
	}
	if !until.IsZero() && now.After(until) {
		delete(h.partitions, mac)
		return false
	}
	return true
}

// applyFaults runs one frame through the fault pipeline. It returns
// the frames to put on the wire now (zero, one, or two — loss, pass,
// duplicate), any previously held frames whose countdown expired, and
// whether the input frame was lost outright (as opposed to held back).
// Called with h.mu held; every rng draw happens here, in send order,
// which is what makes a single-sender fault schedule reproducible.
// Each applied fault bumps its counter and emits a trace event (tr may
// be nil). fr.Payload is the sender's live buffer: a frame that is
// corrupted or held gets a private copy, and the rest share it.
func (f *faultState) applyFaults(fr Frame, st *hubMetrics, tr *telemetry.Trace) (now, released []Frame, lost bool) {
	p := &f.plan

	// Countdowns first: the current send is the event held frames wait on.
	kept := f.held[:0]
	for _, hf := range f.held {
		hf.release--
		if hf.release <= 0 {
			released = append(released, hf.frame)
		} else {
			kept = append(kept, hf)
		}
	}
	f.held = kept

	// Gilbert–Elliott transition, then state-dependent loss.
	if f.bad {
		if p.BadToGoodPct > 0 && f.rng.Intn(100) < p.BadToGoodPct {
			f.bad = false
		}
	} else if p.GoodToBadPct > 0 && f.rng.Intn(100) < p.GoodToBadPct {
		f.bad = true
		st.badEntries.Inc()
		tr.Emit("netsim", "fault.burst_enter", "src", fr.Src.String())
	}
	lossPct := p.LossGoodPct
	if f.bad {
		lossPct = p.LossBadPct
	}
	if lossPct > 0 && f.rng.Intn(100) < lossPct {
		if f.bad {
			st.lostBurst.Inc()
			tr.Emit("netsim", "fault.loss", "mode", "burst", "src", fr.Src.String(), "len", len(fr.Payload))
		} else {
			st.lostGood.Inc()
			tr.Emit("netsim", "fault.loss", "mode", "good", "src", fr.Src.String(), "len", len(fr.Payload))
		}
		return nil, released, true
	}

	if p.CorruptPct > 0 && len(fr.Payload) > 0 && f.rng.Intn(100) < p.CorruptPct {
		// Flip one bit in a private copy; the sender's buffer is intact.
		cp := append([]byte(nil), fr.Payload...)
		bit := f.rng.Intn(len(cp) * 8)
		cp[bit/8] ^= 1 << (bit % 8)
		fr.Payload = cp
		st.corrupted.Inc()
		tr.Emit("netsim", "fault.corrupt", "src", fr.Src.String(), "bit", bit)
	}

	if p.ReorderPct > 0 && f.rng.Intn(100) < p.ReorderPct {
		fr.Payload = append([]byte(nil), fr.Payload...) // held past Send
		f.held = append(f.held, heldFrame{frame: fr, release: 1 + f.rng.Intn(p.ReorderDepth)})
		st.reordered.Inc()
		tr.Emit("netsim", "fault.reorder", "src", fr.Src.String(), "len", len(fr.Payload))
		return nil, released, false
	}

	now = append(now, fr)
	if p.DupPct > 0 && f.rng.Intn(100) < p.DupPct {
		now = append(now, fr)
		st.duplicated.Inc()
		tr.Emit("netsim", "fault.dup", "src", fr.Src.String(), "len", len(fr.Payload))
	}
	return now, released, false
}
