package tape

import (
	"errors"
	"fmt"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SetInjector attaches a fault injector consulted on every drive
// request (nil disables injection).
func (d *Drive) SetInjector(inj fault.Injector) { d.inj = inj }

// consult asks the injector about one request while the drive is held.
// Stalls are charged immediately (the drive hiccups while holding the
// transport); injected errors are returned wrapped with the drive
// identity and charge no transfer time, like hard media errors.
// corrupt=true asks the caller to bit-flip the delivered copy.
func (d *Drive) consult(p *sim.Proc, write bool, addr Addr, n int64) (corrupt bool, err error) {
	dec := fault.Decide(d.inj, fault.Op{
		Device: d.dev, Write: write,
		Addr: int64(addr), N: n, Now: p.Now(),
	})
	if dec.Stall > 0 {
		d.Stats.Stalls++
		d.Stats.StallTime += dec.Stall
		t0 := p.Now()
		p.Hold(dec.Stall)
		d.record(p, trace.Fault, t0, 0)
	}
	if dec.Err != nil {
		d.Stats.InjectedFaults++
		if errors.Is(dec.Err, fault.ErrDriveLost) {
			d.lost = true
		}
		return false, fmt.Errorf("tape: drive %q: %w", d.name, dec.Err)
	}
	if dec.Corrupt {
		d.Stats.InjectedFaults++
	}
	return dec.Corrupt, nil
}

// Lost reports whether an injected drive failure has killed this
// drive's transport.
func (d *Drive) Lost() bool { return d.lost }

// deliver hands a read's blocks to the caller, bit-flipping one of
// them first when the injector asked for corruption, and verifies
// every block's checksum: the one integrity check of a simulated tape
// read, so stored or delivered corruption surfaces here as
// block.ErrBadChecksum.
func deliver(blks []block.Block, corrupt bool) ([]block.Block, error) {
	if corrupt {
		corruptDelivered(blks)
	}
	if err := block.VerifyAll(blks); err != nil {
		return nil, err
	}
	return blks, nil
}

// corruptDelivered bit-flips one block of a delivered read without
// touching the stored data, so a re-read of the same region recovers.
func corruptDelivered(blks []block.Block) {
	if len(blks) == 0 {
		return
	}
	i := len(blks) / 2
	bad := append(block.Block(nil), blks[i]...)
	bad[len(bad)-1] ^= 0xff
	blks[i] = bad
}

// transport is the single physical drive behind a shared drive pair.
type transport struct {
	res    *sim.Resource
	active *Drive
}

// NewSharedDrivePair returns two logical drives multiplexed onto ONE
// physical transport — the degraded configuration after a drive
// failure leaves a two-tape join with a single working drive. The
// drives serialize on the shared transport, and switching between them
// charges a media exchange (the robot swaps cartridges) plus the
// repositioning seek back to where that cartridge's head was needed.
func NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg DriveConfig) (*Drive, *Drive) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tr := &transport{res: sim.NewResource(k, "tape:"+nameA+"+"+nameB, 1)}
	a := &Drive{name: nameA, dev: "tape:" + nameA, k: k, cfg: cfg, res: tr.res, shared: tr}
	b := &Drive{name: nameB, dev: "tape:" + nameB, k: k, cfg: cfg, res: tr.res, shared: tr}
	return a, b
}

// switchIn makes d the transport's active cartridge, charging the
// exchange and losing the head position (a freshly mounted cartridge
// rewinds to the start of its current volume). Called with the
// transport held. No-op for dedicated drives.
func (d *Drive) switchIn(p *sim.Proc) {
	if d.shared == nil || d.shared.active == d {
		return
	}
	if d.shared.active != nil {
		if d.cfg.ExchangeTime > 0 {
			t0 := p.Now()
			p.Hold(d.cfg.ExchangeTime)
			d.record(p, trace.TapeExchange, t0, 0)
		}
		d.Stats.Exchanges++
		d.Stats.ExchangeTime += d.cfg.ExchangeTime
		if d.media != nil {
			d.pos = d.media.volumeSpan(d.curVol).Start
		}
		d.started = false
		d.reverse = false
	}
	d.shared.active = d
}
