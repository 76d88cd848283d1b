package incentive

import (
	"math"
	"testing"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// FuzzSoftwareFloor checks the bound the engine's no-token refusals rest
// on: for finite inputs with valid roles and priority, sizes and qualities
// in [0, maximum] and non-negative weight sums (the ranges the engine
// produces), SoftwareFloor never exceeds Software, and neither does it
// after Total adds the same hardware term.
func FuzzSoftwareFloor(f *testing.F) {
	f.Add(0.6, 1.2, int64(50), int64(100), 0.4, 0.8, uint8(2), uint8(2), uint8(2), 0.02, 10.0)
	f.Add(0.0, 1.0, int64(100), int64(100), 1.0, 1.0, uint8(1), uint8(3), uint8(1), 0.0, 10.0)
	f.Add(0.0, 0.0, int64(1), int64(1), 1.0, 1.0, uint8(3), uint8(1), uint8(3), -1.0, 1e300)
	f.Add(1.0, 5e-324, int64(0), int64(0), 0.0, 0.0, uint8(1), uint8(1), uint8(1), 1e308, 5e-324)
	f.Fuzz(func(t *testing.T, sum, maxSum float64, size, maxSize int64, q, maxQ float64, ru, rv, prio uint8, ih, im float64) {
		for _, x := range []float64{sum, maxSum, q, maxQ, ih, im} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		if sum < 0 || maxSum < 0 || size < 0 || size > maxSize || q < 0 || q > maxQ {
			return
		}
		params := DefaultParams()
		params.MaxIncentive = im
		c, err := NewCalculator(params)
		if err != nil {
			return
		}
		fs := SoftwareFactors{
			SumWeights: sum, MaxSumWeights: maxSum,
			Size: size, MaxSize: maxSize,
			Quality: q, MaxQuality: maxQ,
			SenderRole: ident.Role(ru), ReceiverRole: ident.Role(rv),
			Priority: message.Priority(prio),
		}
		is, err := c.Software(fs)
		floor, ferr := c.SoftwareFloor(fs)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("Software error %v, SoftwareFloor error %v: they must validate alike", err, ferr)
		}
		if err != nil {
			if floor != 0 {
				t.Fatalf("SoftwareFloor = %v on invalid input, want 0", floor)
			}
			return
		}
		if !(floor <= is) {
			t.Fatalf("SoftwareFloor %v > Software %v for %+v", floor, is, fs)
		}
		if lo, hi := c.Total(floor, ih), c.Total(is, ih); !(lo <= hi) {
			t.Fatalf("Total(floor, %v) = %v > Total(I_s, %v) = %v for %+v", ih, lo, ih, hi, fs)
		}
	})
}
