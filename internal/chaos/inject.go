package chaos

import (
	"encoding/binary"
	"fmt"
	"sort"

	"strom/internal/crc"
	"strom/internal/fabric"
	"strom/internal/pcie"
	"strom/internal/sim"
	"strom/internal/telemetry"
)

// Kind classifies one injected fault.
type Kind uint8

// Fault kinds.
const (
	KindDrop    Kind = iota // Gilbert–Elliott loss
	KindFlap                // frame dropped inside a link-down window
	KindCorrupt             // one bit flipped
	KindDup                 // frame duplicated
	KindReorder             // frame delayed past later frames
	KindStall               // DMA command deferred to a stall window's end
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindFlap:
		return "flap"
	case KindCorrupt:
		return "corrupt"
	case KindDup:
		return "dup"
	case KindReorder:
		return "reorder"
	case KindStall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one injected fault: what happened, where, when, and the extra
// delay (for reorder, duplication and stall faults).
type Record struct {
	At    sim.Time
	Where string // "a-to-b", "b-to-a", "dma-a", "dma-b"
	Kind  Kind
	Extra sim.Duration
}

// String formats the record for logs and violation reports.
func (r Record) String() string {
	if r.Extra != 0 {
		return fmt.Sprintf("%v %s %v (+%v)", r.At, r.Where, r.Kind, r.Extra)
	}
	return fmt.Sprintf("%v %s %v", r.At, r.Where, r.Kind)
}

// Stats counts injected faults by kind.
type Stats struct {
	Dropped     uint64
	FlapDropped uint64
	Corrupted   uint64
	Duplicated  uint64
	Reordered   uint64
	Stalled     uint64
}

// Total returns the total fault count.
func (s Stats) Total() uint64 {
	return s.Dropped + s.FlapDropped + s.Corrupted + s.Duplicated + s.Reordered + s.Stalled
}

// windowCursor walks a sorted window list; judge times are monotone (DES
// events fire in time order), so membership tests are amortized O(1).
type windowCursor struct {
	ws []Window
	i  int
}

// active reports whether now falls inside a window, and returns it.
func (c *windowCursor) active(now sim.Time) (Window, bool) {
	for c.i < len(c.ws) && now >= c.ws[c.i].End() {
		c.i++
	}
	if c.i < len(c.ws) && now >= c.ws[c.i].At {
		return c.ws[c.i], true
	}
	return Window{}, false
}

// site is one injection point (a link direction or a DMA engine) with
// its own engine reference, record log, stats, and digest. Each site is
// owned by exactly one engine — on a sharded testbed the A→B direction
// and machine A's DMA judge on shard A's engine and RNG while B's sites
// judge on shard B's — so a site never shares mutable state across
// shards. The injector's external views (Stats, Records,
// ScheduleDigest) combine the sites in the fixed order a-to-b, b-to-a,
// dma-a, dma-b, which is identical however the sites are spread over
// shards.
type site struct {
	eng    *sim.Engine
	where  string
	st     Stats
	log    []Record
	digest *crc.Digest64
}

// logLimit bounds each site's retained fault record log. The schedule
// digest always covers every fault regardless of the bound.
const logLimit = 4096

func newSite(eng *sim.Engine, where string) *site {
	return &site{eng: eng, where: where, digest: crc.NewDigest64()}
}

// record logs a fault (bounded by logLimit) and folds it into the site's
// schedule digest (unbounded).
func (s *site) record(r Record) {
	if len(s.log) < logLimit {
		s.log = append(s.log, r)
	}
	var buf [17]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.At))
	binary.LittleEndian.PutUint64(buf[8:], uint64(r.Extra))
	buf[16] = uint8(r.Kind)
	s.digest.Write(buf[:])
	s.digest.Write([]byte(r.Where))
}

// dirState is the per-direction injector state (the GE chain position).
type dirState struct {
	*site
	f     LinkFaults
	flaps windowCursor
	bad   bool // Gilbert–Elliott chain in the bad state
}

// Injector drives a Plan against the testbed. All decisions come from
// the owning engine's RNG and clock, so the injected fault schedule is
// a deterministic function of (plan, seeds) — ScheduleDigest pins it.
type Injector struct {
	plan Plan

	ab, ba dirState
	stallA windowCursor
	stallB windowCursor
	dmaA   *site
	dmaB   *site
}

// NewOn builds an injector whose A-side sites (a-to-b, dma-a) live on
// engA and B-side sites (b-to-a, dma-b) on engB — the sharded testbed,
// where each machine is its own shard; pass one engine twice for the
// single-engine testbed. Each direction walks its own cursor over the
// shared flap window list (the cursors are per-site state; the windows
// are read-only).
func NewOn(engA, engB *sim.Engine, plan Plan) *Injector {
	plan = plan.normalized()
	return &Injector{
		plan:   plan,
		ab:     dirState{site: newSite(engA, "a-to-b"), f: plan.AtoB, flaps: windowCursor{ws: plan.Flaps}},
		ba:     dirState{site: newSite(engB, "b-to-a"), f: plan.BtoA, flaps: windowCursor{ws: plan.Flaps}},
		stallA: windowCursor{ws: plan.StallsA},
		stallB: windowCursor{ws: plan.StallsB},
		dmaA:   newSite(engA, "dma-a"),
		dmaB:   newSite(engB, "dma-b"),
	}
}

// judge makes the per-frame decision for one direction.
func (d *dirState) judge(now sim.Time) fabric.Verdict {
	var v fabric.Verdict
	if _, down := d.flaps.active(now); down {
		d.st.FlapDropped++
		d.record(Record{At: now, Where: d.where, Kind: KindFlap})
		v.Drop = true
		v.Cause = fabric.DropFlap
		return v
	}
	f := &d.f
	rng := d.eng.Rand()
	if f.Loss.enabled() {
		if d.bad {
			if rng.Float64() < f.Loss.PBadGood {
				d.bad = false
			}
		} else if rng.Float64() < f.Loss.PGoodBad {
			d.bad = true
		}
		p := f.Loss.LossGood
		if d.bad {
			p = f.Loss.LossBad
		}
		if p > 0 && rng.Float64() < p {
			d.st.Dropped++
			d.record(Record{At: now, Where: d.where, Kind: KindDrop})
			v.Drop = true
			v.Cause = fabric.DropChaos
			return v
		}
	}
	if f.CorruptProb > 0 && rng.Float64() < f.CorruptProb {
		d.st.Corrupted++
		d.record(Record{At: now, Where: d.where, Kind: KindCorrupt})
		v.Corrupt = true
	}
	if f.DupProb > 0 && rng.Float64() < f.DupProb {
		d.st.Duplicated++
		d.record(Record{At: now, Where: d.where, Kind: KindDup, Extra: f.DupDelay})
		v.Duplicate = true
		v.DupDelay = f.DupDelay
	}
	if f.ReorderProb > 0 && f.ReorderMax > 0 && rng.Float64() < f.ReorderProb {
		delay := sim.Duration(1 + rng.Int63n(int64(f.ReorderMax)))
		d.st.Reordered++
		d.record(Record{At: now, Where: d.where, Kind: KindReorder, Extra: delay})
		v.Delay = delay
	}
	return v
}

// dirInjector adapts one direction to fabric.FaultInjector.
type dirInjector struct{ d *dirState }

// Judge implements fabric.FaultInjector.
func (di dirInjector) Judge(now sim.Time, frameLen int) fabric.Verdict {
	return di.d.judge(now)
}

// atoB returns the fault injector for the A→B direction (nil when the
// plan injects nothing there, keeping the fabric's fast path clean).
func (j *Injector) atoB() fabric.FaultInjector {
	if !j.plan.AtoB.enabled() && len(j.plan.Flaps) == 0 {
		return nil
	}
	return dirInjector{d: &j.ab}
}

// btoA returns the fault injector for the B→A direction.
func (j *Injector) btoA() fabric.FaultInjector {
	if !j.plan.BtoA.enabled() && len(j.plan.Flaps) == 0 {
		return nil
	}
	return dirInjector{d: &j.ba}
}

// stallFn builds a pcie.StallFn over a window cursor.
func (j *Injector) stallFn(cur *windowCursor, s *site) pcie.StallFn {
	if len(cur.ws) == 0 {
		return nil
	}
	return func(now sim.Time) sim.Duration {
		w, in := cur.active(now)
		if !in {
			return 0
		}
		d := w.End().Sub(now)
		s.st.Stalled++
		s.record(Record{At: now, Where: s.where, Kind: KindStall, Extra: d})
		return d
	}
}

// Apply wires the injector into a link and the two DMA engines. Any
// argument may be nil to skip that attachment.
func (j *Injector) Apply(link *fabric.Link, dmaA, dmaB *pcie.Engine) {
	if link != nil {
		link.SetFaultsAtoB(j.atoB())
		link.SetFaultsBtoA(j.btoA())
	}
	if dmaA != nil {
		dmaA.SetStall(j.stallFn(&j.stallA, j.dmaA))
	}
	if dmaB != nil {
		dmaB.SetStall(j.stallFn(&j.stallB, j.dmaB))
	}
}

// sites returns the injection sites in their canonical combination
// order. Every cross-site view folds in this order so the result is
// independent of how the sites were spread over shards.
func (j *Injector) sites() [4]*site { return [4]*site{j.ab.site, j.ba.site, j.dmaA, j.dmaB} }

// Stats returns the fault counters summed over all sites.
func (j *Injector) Stats() Stats {
	var t Stats
	for _, s := range j.sites() {
		t.Dropped += s.st.Dropped
		t.FlapDropped += s.st.FlapDropped
		t.Corrupted += s.st.Corrupted
		t.Duplicated += s.st.Duplicated
		t.Reordered += s.st.Reordered
		t.Stalled += s.st.Stalled
	}
	return t
}

// Records returns the retained fault log (each site bounded by
// logLimit), merged across sites by injection time with ties
// broken by canonical site order — a total order that does not depend
// on shard interleaving.
func (j *Injector) Records() []Record {
	var out []Record
	for _, s := range j.sites() {
		out = append(out, s.log...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// ScheduleDigest returns a CRC64 over every injected fault (time, site,
// kind, delay), folding the per-site digests in canonical site order.
// Two runs of the same plan at the same seed must produce equal digests
// — sharded or not — the replayability contract.
func (j *Injector) ScheduleDigest() uint64 {
	d := crc.NewDigest64()
	var buf [8]byte
	for _, s := range j.sites() {
		binary.LittleEndian.PutUint64(buf[:], s.digest.Sum64())
		d.Write(buf[:])
	}
	return d.Sum64()
}

// FaultSite is a standalone single-direction fault injector for
// topologies beyond the two-machine Plan: an N-machine switched fabric
// installs one FaultSite per impaired direction (a machine's uplink via
// fabric.Port.SetFaults, a switch egress via Switch.SetEgressFaults).
// Like an Injector site it draws every decision from the owning
// engine's RNG — construct it with the engine that judges the direction
// (the NIC engine for uplinks, the switch engine for egress wires).
type FaultSite struct {
	d dirState
}

// NewFaultSite builds a fault site named where (its Record label) on
// eng's clock and RNG. flaps windows drop every frame inside them.
func NewFaultSite(eng *sim.Engine, where string, f LinkFaults, flaps []Window) *FaultSite {
	ws := append([]Window(nil), flaps...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].At < ws[j].At })
	return &FaultSite{d: dirState{
		site:  newSite(eng, where),
		f:     f,
		flaps: windowCursor{ws: ws},
	}}
}

// Judge implements fabric.FaultInjector.
func (s *FaultSite) Judge(now sim.Time, frameLen int) fabric.Verdict { return s.d.judge(now) }

// Stats returns the site's fault counters.
func (s *FaultSite) Stats() Stats { return s.d.st }

// AttachTelemetry mirrors the fault counters into a metrics registry.
// Collection runs after the simulation (or between barriers), so the
// cross-site sum is safe there.
func (j *Injector) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.OnCollect(func() {
		st := j.Stats()
		reg.Counter("chaos_dropped").Set(st.Dropped)
		reg.Counter("chaos_flap_dropped").Set(st.FlapDropped)
		reg.Counter("chaos_corrupted").Set(st.Corrupted)
		reg.Counter("chaos_duplicated").Set(st.Duplicated)
		reg.Counter("chaos_reordered").Set(st.Reordered)
		reg.Counter("chaos_dma_stalled").Set(st.Stalled)
	})
}
