package incentive

import (
	"errors"
	"fmt"

	"dtnsim/internal/ident"
)

// ErrInsufficient is returned when a payment exceeds the payer's balance.
// The zero-token rule hangs off this error: "if a device exhausts all of its
// tokens, it is no longer allowed to receive messages that it itself is
// interested in".
var ErrInsufficient = errors.New("incentive: insufficient tokens")

// Wallet is one node's token balance.
type Wallet struct {
	owner   ident.NodeID
	balance float64
	earned  float64
	spent   float64
}

// NewWallet creates a wallet with the given starting balance.
func NewWallet(owner ident.NodeID, initial float64) (*Wallet, error) {
	if initial < 0 {
		return nil, fmt.Errorf("incentive: initial balance must be non-negative, got %v", initial)
	}
	return &Wallet{owner: owner, balance: initial}, nil
}

// Balance returns the current token balance.
func (w *Wallet) Balance() float64 { return w.balance }

// Earned returns cumulative tokens received.
func (w *Wallet) Earned() float64 { return w.earned }

// Spent returns cumulative tokens paid out.
func (w *Wallet) Spent() float64 { return w.spent }

// CanPay reports whether the wallet covers the amount.
func (w *Wallet) CanPay(amount float64) bool { return w.balance >= amount }

// Ledger moves tokens between wallets and keeps the global books, enabling
// the conservation invariant the property tests check: tokens are never
// minted or burned by transfers, only moved.
type Ledger struct {
	transfers int
	volume    float64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Transfers returns the number of completed payments.
func (l *Ledger) Transfers() int { return l.transfers }

// Volume returns the cumulative tokens moved.
func (l *Ledger) Volume() float64 { return l.volume }

// Pay moves amount tokens from payer to payee. A zero amount is a no-op.
// Negative amounts are a programming error and are rejected. On
// ErrInsufficient no tokens move.
func (l *Ledger) Pay(payer, payee *Wallet, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("incentive: negative payment %v from %s", amount, payer.owner)
	}
	if amount == 0 {
		return nil
	}
	if !payer.CanPay(amount) {
		return ErrInsufficient
	}
	payer.balance -= amount
	payer.spent += amount
	payee.balance += amount
	payee.earned += amount
	l.transfers++
	l.volume += amount
	return nil
}
