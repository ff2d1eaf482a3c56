// Package netmodel defines LogGOPS network parameter sets and closed-form
// timing helpers used to validate the simulator.
//
// The LogGOPS model (Hoefler et al., "LogGOPSim") extends LogGP:
//
//	L — end-to-end network latency
//	o — CPU overhead per message (send and receive side)
//	g — gap between consecutive message injections on one NIC
//	G — gap per byte (inverse bandwidth, NIC occupancy)
//	O — CPU overhead per byte (memory copies)
//	S — eager/rendezvous threshold: messages larger than S synchronize
//	    sender and receiver before the payload moves
//
// All times are int64 nanoseconds, matching the simulator's clock, except
// the per-byte quantities which are float64 ns/byte (sub-nanosecond per
// byte is the normal regime for modern networks).
package netmodel

import "fmt"

// Params is a LogGOPS parameter set.
type Params struct {
	// L is the wire latency in nanoseconds.
	L int64
	// O_ is named o in the literature: per-message CPU overhead (ns).
	O int64
	// G_ is named g in the literature: per-message NIC gap (ns).
	Gap int64
	// GPerByte is G: NIC occupancy per byte (ns/byte).
	GPerByte float64
	// OPerByte is O: CPU overhead per byte (ns/byte).
	OPerByte float64
	// S is the eager/rendezvous threshold in bytes. Messages with
	// size > S use the rendezvous protocol.
	S int64
}

// CrayXC40 returns parameters representative of the Cray XC40 (Aries)
// interconnect used for the paper's simulations (Ferreira et al.,
// "Characterizing MPI matching via trace-based simulation" report LogGP
// fits in this neighbourhood for Aries). Exact values differ across
// calibrations; shapes of the paper's results are insensitive to them.
func CrayXC40() Params {
	return Params{
		L:        1250, // 1.25 us
		O:        1200, // 1.2 us per-message CPU overhead
		Gap:      1600, // 1.6 us NIC gap
		GPerByte: 0.2,  // ~5 GB/s effective per-byte occupancy
		OPerByte: 0.07, // ~14 GB/s copy bandwidth
		S:        8192, // 8 KiB eager limit
	}
}

// Validate reports an error when a parameter is out of range.
func (p Params) Validate() error {
	if p.L < 0 || p.O < 0 || p.Gap < 0 {
		return fmt.Errorf("netmodel: negative time parameter: %+v", p)
	}
	if p.GPerByte < 0 || p.OPerByte < 0 {
		return fmt.Errorf("netmodel: negative per-byte parameter: %+v", p)
	}
	if p.S < 0 {
		return fmt.Errorf("netmodel: negative eager threshold %d", p.S)
	}
	return nil
}

// byteCost converts a per-byte rate into integer nanoseconds for a
// message of the given size. LogGOPS charges (s-1) per-byte units per
// message; size-0 and size-1 messages cost nothing beyond fixed overheads.
func byteCost(rate float64, size int64) int64 {
	if size <= 1 {
		return 0
	}
	return int64(rate * float64(size-1))
}

// SendCPU returns the sender CPU busy time for a message of size bytes:
// o + (s-1)O.
func (p Params) SendCPU(size int64) int64 {
	return p.O + byteCost(p.OPerByte, size)
}

// RecvCPU returns the receiver CPU busy time for a message of size bytes.
// LogGOPS is symmetric: o + (s-1)O.
func (p Params) RecvCPU(size int64) int64 {
	return p.O + byteCost(p.OPerByte, size)
}

// NICGap returns the NIC occupancy for a message of size bytes:
// g + (s-1)G.
func (p Params) NICGap(size int64) int64 {
	return p.Gap + byteCost(p.GPerByte, size)
}

// Transit returns the network transit time for a message of size bytes:
// L + (s-1)G. The (s-1)G term models pipelined byte arrival: the last
// byte lands one NIC occupancy after the first.
func (p Params) Transit(size int64) int64 {
	return p.L + byteCost(p.GPerByte, size)
}

// Eager reports whether a message of size bytes uses the eager protocol.
func (p Params) Eager(size int64) bool { return size <= p.S }

// EagerLatency returns the closed-form one-way latency of an eager
// message between two otherwise idle ranks: o + L + (s-1)G + o.
// Used only for simulator validation.
func (p Params) EagerLatency(size int64) int64 {
	return p.SendCPU(size) + p.Transit(size) + p.RecvCPU(size)
}

// PingPong returns the closed-form round-trip time of an eager ping-pong
// between two idle ranks. Used only for simulator validation.
func (p Params) PingPong(size int64) int64 {
	return 2 * p.EagerLatency(size)
}
