// Package radio models the wireless substrate: communication range,
// bandwidth-limited transfers, and the Friis-equation energy accounting that
// feeds the hardware-factor incentive (Paper I §3.2).
package radio

import (
	"math"
	"time"
)

// The radio every device carries. Range and Bandwidth are Table 5.1's
// 100 m transmission radius and 250 kBps transmission speed.
const (
	// Range is the transmission radius in metres.
	Range float64 = 100
	// Bandwidth is the link throughput in bytes per second.
	Bandwidth float64 = 250_000
	// TxPower is the transmission power in watts. The paper leaves the
	// absolute scale to the constant c in I_h = c·P_t·t; 0.1 W is a typical
	// class-1 Bluetooth / low-power Wi-Fi figure.
	TxPower float64 = 0.1
	// Wavelength λ in metres for the Friis path-loss term
	// L_v = (4πR/λ)². The paper calls λ "bandwidth" but uses it as the
	// wavelength in the Friis equation; 2.4 GHz ⇒ λ ≈ 0.125 m.
	Wavelength float64 = 0.125
)

// PathLoss returns the free-space loss factor L_v = (4πR/λ)² at distance
// metres. Distances below one wavelength are clamped to one wavelength so
// the receive power can never exceed the transmit power.
func PathLoss(distance float64) float64 {
	if distance < Wavelength {
		distance = Wavelength
	}
	r := 4 * math.Pi * distance / Wavelength
	return r * r
}

// ReceivePower returns P_r = P_t / L_v at the given distance, in watts.
func ReceivePower(distance float64) float64 {
	return TxPower / PathLoss(distance)
}

// TransferTime returns how long a payload of size bytes occupies the link.
func TransferTime(size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / Bandwidth * float64(time.Second))
}

// Energy is the per-node battery accounting. The incentive's hardware factor
// compensates relays "proportional to the amount of power consumed in
// receiving the message as well as forwarding of the message", so each node
// tracks transmit and receive energy in joules.
type Energy struct {
	TxJoules float64
	RxJoules float64
}

// SpendTx records energy for transmitting for t at power pt.
func (e *Energy) SpendTx(pt float64, t time.Duration) {
	e.TxJoules += pt * t.Seconds()
}

// SpendRx records energy for receiving for t at power pr.
func (e *Energy) SpendRx(pr float64, t time.Duration) {
	e.RxJoules += pr * t.Seconds()
}

// Total returns total energy spent in joules.
func (e *Energy) Total() float64 { return e.TxJoules + e.RxJoules }
