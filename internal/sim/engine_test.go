package sim

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mfdl/internal/replica"
	"mfdl/internal/stats"
)

// sequential drives any round: each round's per-cell counts follow from the
// previous round's aggregates alone, a disabled rule runs exactly one
// round, and a round's error ends the loop.
func TestSequentialDrivesRounds(t *testing.T) {
	var seen [][]int
	run := func(_ context.Context, want []int) ([]replica.Agg, error) {
		seen = append(seen, slices.Clone(want))
		aggs := make([]replica.Agg, len(want))
		for i, r := range want {
			var s stats.Summary
			for j := 0; j < r; j++ {
				s.Add(float64(i * j)) // cell 0 constant, cell 1 noisy
			}
			aggs[i] = replica.Agg{Replicas: r, Values: map[string]stats.Summary{"m": s}}
		}
		return aggs, nil
	}
	aggs, err := sequential(context.Background(), 2, 1, Stopping{Metric: "m", Target: 0.01, MaxReplicas: 8}, run)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{2, 2}, {2, 4}, {2, 8}}; !reflect.DeepEqual(seen, want) {
		t.Errorf("rounds asked for %v, want %v", seen, want)
	}
	if aggs[0].Replicas != 2 || aggs[1].Replicas != 8 {
		t.Errorf("returned R = %d, %d; want the last round's 2, 8", aggs[0].Replicas, aggs[1].Replicas)
	}
	seen = nil
	if _, err := sequential(context.Background(), 2, 3, Stopping{}, run); err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{3, 3}}; !reflect.DeepEqual(seen, want) {
		t.Errorf("disabled rule ran rounds %v, want %v", seen, want)
	}
	boom := errors.New("boom")
	if _, err := sequential(context.Background(), 1, 1, Stopping{}, func(context.Context, []int) ([]replica.Agg, error) {
		return nil, boom
	}); err != boom {
		t.Errorf("round error = %v, want it returned", err)
	}
	// A metric no cell reports is a misnamed one, not a converged run.
	_, err = sequential(context.Background(), 2, 1, Stopping{Metric: "mm", Target: 0.01, MaxReplicas: 8}, run)
	if err == nil || !strings.Contains(err.Error(), `"mm"`) {
		t.Errorf("absent stopping metric: err = %v, want one naming it", err)
	}
}
