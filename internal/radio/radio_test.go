package radio

import (
	"math"
	"testing"
	"time"
)

func TestDefaultMatchesTable51(t *testing.T) {
	if Range != 100 {
		t.Errorf("range = %v, want 100 m", Range)
	}
	if Bandwidth != 250_000 {
		t.Errorf("bandwidth = %v, want 250 kBps", Bandwidth)
	}
}

func TestPathLossFormula(t *testing.T) {
	// L_v = (4πR/λ)² at R = 100 m, λ = 0.125 m.
	want := math.Pow(4*math.Pi*100/0.125, 2)
	if got := PathLoss(100); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("PathLoss(100) = %v, want %v", got, want)
	}
}

func TestPathLossMonotoneInDistance(t *testing.T) {
	prev := PathLoss(1)
	for d := 2.0; d <= 200; d += 1 {
		l := PathLoss(d)
		if l <= prev {
			t.Fatalf("path loss not increasing at %v m", d)
		}
		prev = l
	}
}

func TestReceivePowerNeverExceedsTx(t *testing.T) {
	for _, d := range []float64{0, 0.01, 0.125, 1, 10, 100} {
		if pr := ReceivePower(d); pr > TxPower {
			t.Errorf("ReceivePower(%v) = %v exceeds TxPower %v", d, pr, TxPower)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 1 MB at 250 kB/s ≈ 4.19 s.
	got := TransferTime(1 << 20)
	want := time.Duration(float64(1<<20) / 250000 * float64(time.Second))
	if got != want {
		t.Errorf("TransferTime(1MB) = %v, want %v", got, want)
	}
	if TransferTime(0) != 0 || TransferTime(-5) != 0 {
		t.Error("non-positive sizes must take zero time")
	}
}

func TestEnergyAccounting(t *testing.T) {
	var e Energy
	e.SpendTx(0.1, 10*time.Second)
	e.SpendRx(0.01, 10*time.Second)
	if math.Abs(e.TxJoules-1.0) > 1e-12 {
		t.Errorf("TxJoules = %v, want 1.0", e.TxJoules)
	}
	if math.Abs(e.RxJoules-0.1) > 1e-12 {
		t.Errorf("RxJoules = %v, want 0.1", e.RxJoules)
	}
	if math.Abs(e.Total()-1.1) > 1e-12 {
		t.Errorf("Total = %v, want 1.1", e.Total())
	}
}
