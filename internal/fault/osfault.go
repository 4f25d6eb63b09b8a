package fault

import (
	"fmt"
	"time"
)

// This file is the OS-level half of the fault taxonomy: rules that fire
// at the syscall layer of the file backend rather than inside the
// device model. The same Schedule holds both kinds; Decide serves the
// device model and DecideOS serves the file layer, so a single -faults
// string drives both backends.
//
// OS decisions are made at *plan* time, while the deciding process
// holds the simulation control token — the file layer then applies the
// armed decision on its worker goroutine. That keeps Schedule state
// single-threaded even though the faulted syscalls run off-token.

// OSDecision is an injector's verdict on one OS-level file operation.
// The zero value means "proceed normally".
type OSDecision struct {
	// Err, if non-nil, fails the operation with an EIO-style error
	// (wrapping ErrTransient, so device-layer retries apply).
	Err error
	// Torn asks the file layer to write only a prefix of one syscall's
	// bytes (on the file backend, one request's extent of records) and
	// then report success — a torn write that only checksum
	// verification can catch later.
	Torn bool
	// Flip asks the file layer to flip one bit in the buffer as it
	// crosses the syscall boundary: stored corruption on writes.
	Flip bool
	// Stall delays the operation by a *wall-clock* duration on the
	// device worker, exercising I/O deadlines and health tracking.
	Stall time.Duration
}

// Zero reports whether the decision asks for nothing.
func (d OSDecision) Zero() bool {
	return d.Err == nil && !d.Torn && !d.Flip && d.Stall == 0
}

// OSInjector is implemented by injectors that also decide OS-level
// operations. *Schedule implements it.
type OSInjector interface {
	DecideOS(op Op) OSDecision
}

// DecideOS consults inj's OS-level side, tolerating injectors (or nil)
// that do not have one.
func DecideOS(inj Injector, op Op) OSDecision {
	if osi, ok := inj.(OSInjector); ok {
		return osi.DecideOS(op)
	}
	return OSDecision{}
}

// matchesOS reports whether an OS-level rule applies to op.
func (r *rule) matchesOS(op Op) bool {
	if r.count == 0 || !r.osLevel() {
		return false
	}
	if r.device != "" && r.device != op.Device {
		return false
	}
	if op.Now < r.at {
		return false
	}
	switch r.kind {
	case kindWallStall:
		// Stalls hit any operation on the device, read or write.
		return true
	case kindTornWrite, kindFlipStored:
		if !op.Write {
			return false
		}
	}
	if r.n > 0 && (r.addr >= op.Addr+op.N || r.addr+r.n <= op.Addr) {
		return false
	}
	return true
}

// DecideOS implements OSInjector: the first matching active OS-level
// rule decides the operation, spending one of its remaining firings.
func (s *Schedule) DecideOS(op Op) OSDecision {
	if s == nil {
		return OSDecision{}
	}
	for _, r := range s.rules {
		if !r.matchesOS(op) {
			continue
		}
		if r.count > 0 {
			r.count--
		}
		switch r.kind {
		case kindOSErr:
			return OSDecision{Err: fmt.Errorf("%w: %s", ErrTransient, r.err)}
		case kindTornWrite:
			return OSDecision{Torn: true}
		case kindWallStall:
			return OSDecision{Stall: r.wall}
		case kindFlipStored:
			return OSDecision{Flip: true}
		}
	}
	return OSDecision{}
}

// AddOSError makes the next count file operations covering
// [addr, addr+1) on device fail with an EIO-style retryable error at
// the syscall layer.
func (s *Schedule) AddOSError(device string, addr int64, count int) *Schedule {
	if count <= 0 {
		count = 1
	}
	s.rules = append(s.rules, &rule{
		kind: kindOSErr, device: device, addr: addr, n: 1, count: count,
		err: fmt.Errorf("injected OS I/O error at block %d", addr),
	})
	return s
}

// AddTornWrite makes the next count file writes covering [addr, addr+1)
// on device land torn: only a prefix of one record reaches the file,
// yet the write reports success.
func (s *Schedule) AddTornWrite(device string, addr int64, count int) *Schedule {
	if count <= 0 {
		count = 1
	}
	s.rules = append(s.rules, &rule{
		kind: kindTornWrite, device: device, addr: addr, n: 1, count: count,
	})
	return s
}

// AddWallStall makes the next count file operations on device (any
// address) sleep for the wall-clock duration d before proceeding —
// the knob that exercises per-op deadlines and device health.
func (s *Schedule) AddWallStall(device string, d time.Duration, count int) *Schedule {
	if count <= 0 {
		count = 1
	}
	s.rules = append(s.rules, &rule{
		kind: kindWallStall, device: device, count: count, wall: d,
	})
	return s
}

// AddFlipStored makes the next count file writes covering
// [addr, addr+1) on device store one flipped bit — silent on-media
// corruption that only checksum verification catches.
func (s *Schedule) AddFlipStored(device string, addr int64, count int) *Schedule {
	if count <= 0 {
		count = 1
	}
	s.rules = append(s.rules, &rule{
		kind: kindFlipStored, device: device, addr: addr, n: 1, count: count,
	})
	return s
}
