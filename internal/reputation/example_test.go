package reputation_test

import (
	"fmt"

	"dtnsim/internal/message"
	"dtnsim/internal/reputation"
)

// ExampleStore_RateSourceMessage reproduces the DRM's source-rating
// formula R_i = ½(R_t·C/C_m) + ½R_q: a half-confident tag judgement of 4
// with a quality rating of 3.
func ExampleStore_RateSourceMessage() {
	store, err := reputation.NewStore(0, reputation.DefaultParams())
	if err != nil {
		panic(err)
	}
	ri := store.RateSourceMessage(7, reputation.MessageRatingInputs{
		TagRating:     4,
		Confidence:    0.5,
		QualityRating: 3,
	})
	fmt.Printf("R_i = %.1f, node rating now %.1f\n", ri, store.Rating(7))
	// Output: R_i = 2.5, node rating now 2.5
}

// ExampleAwardFactor shows the reputation-scaled incentive factor for a
// deliverer rated 4/5 carrying path ratings (5, 3).
func ExampleAwardFactor() {
	params := reputation.DefaultParams()
	store, err := reputation.NewStore(0, params)
	if err != nil {
		panic(err)
	}
	store.RateRelayMessage(9, reputation.MessageRatingInputs{TagRating: 4, Confidence: 1})
	factor := reputation.AwardFactor(params.Alpha, store.Rating(9), []message.PathRating{{Rating: 5}, {Rating: 3}})
	fmt.Printf("factor = %.2f\n", factor)
	// Output: factor = 0.80
}
