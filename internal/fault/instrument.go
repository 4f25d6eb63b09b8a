package fault

import (
	"errors"

	"repro/internal/obs"
)

// Hooks is the run context a device attaches to: the collector its
// I/O events go to, the registry its series register in, and the fault
// schedule it consults. Any field may be nil. It lives here, the
// lowest package that knows both obs and Injector, so the tape and
// disk simulators can take it; package device re-exports it.
type Hooks struct {
	Obs     *obs.Tracker
	Metrics *obs.Registry
	Faults  Injector
}

// instrumented wraps an Injector, counting its decisions by outcome in
// an obs.Registry and recording injected stall durations.
type instrumented struct {
	inner  Injector
	flight *obs.FlightRecorder

	ok, transient, media, deviceLost, driveLost, corrupt, stall *obs.Counter

	osErr, tornWrite, osStall, flipStored *obs.Counter

	stallSeconds *obs.Histogram
}

// Instrument wraps inj so every decision is counted in reg under
// fault_decisions_total{outcome=...} and stall durations land in a
// fault_stall_seconds histogram; non-clean decisions are additionally
// recorded in flight (which may be nil). Returns inj unchanged when
// inj or reg is nil.
func Instrument(inj Injector, reg *obs.Registry, flight *obs.FlightRecorder) Injector {
	if inj == nil || reg == nil {
		return inj
	}
	c := func(outcome string) *obs.Counter {
		return reg.Counter("fault_decisions_total",
			"Fault-injector decisions by outcome.", obs.A("outcome", outcome))
	}
	return &instrumented{
		inner:      inj,
		flight:     flight,
		ok:         c("ok"),
		transient:  c("transient"),
		media:      c("media"),
		deviceLost: c("device-lost"),
		driveLost:  c("drive-lost"),
		corrupt:    c("corrupt"),
		stall:      c("stall"),
		osErr:      c("os-error"),
		tornWrite:  c("torn-write"),
		osStall:    c("os-stall"),
		flipStored: c("flip-stored"),
		stallSeconds: reg.Histogram("fault_stall_seconds",
			"Injected device stall durations.", obs.BackoffBuckets),
	}
}

// Decide implements Injector.
func (i *instrumented) Decide(op Op) Decision {
	d := i.inner.Decide(op)
	switch {
	case errors.Is(d.Err, ErrDriveLost):
		i.driveLost.Inc()
		i.flight.Record("fault", op.Device, "drive-lost")
	case errors.Is(d.Err, ErrDeviceLost):
		i.deviceLost.Inc()
		i.flight.Record("fault", op.Device, "device-lost")
	case errors.Is(d.Err, ErrMedia):
		i.media.Inc()
		i.flight.Record("fault", op.Device, "media")
	case d.Err != nil:
		i.transient.Inc()
		i.flight.Record("fault", op.Device, "transient")
	case d.Corrupt:
		i.corrupt.Inc()
		i.flight.Record("fault", op.Device, "corrupt")
	case d.Stall > 0:
		i.stall.Inc()
		i.flight.Record("fault", op.Device, "stall")
	default:
		i.ok.Inc()
	}
	if d.Stall > 0 {
		i.stallSeconds.Observe(d.Stall.Seconds())
	}
	return d
}

// DecideOS implements OSInjector, forwarding to the inner injector's
// OS side (if any) and counting non-clean verdicts. Clean OS consults
// are not counted as "ok": every file operation consults both levels,
// and the ok counter tracks device-level decisions only.
func (i *instrumented) DecideOS(op Op) OSDecision {
	d := DecideOS(i.inner, op)
	switch {
	case d.Err != nil:
		i.osErr.Inc()
		i.flight.Record("fault", op.Device, "os-error")
	case d.Torn:
		i.tornWrite.Inc()
		i.flight.Record("fault", op.Device, "torn-write")
	case d.Flip:
		i.flipStored.Inc()
		i.flight.Record("fault", op.Device, "flip-stored")
	case d.Stall > 0:
		i.osStall.Inc()
		i.flight.Record("fault", op.Device, "os-stall")
	}
	return d
}
