package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestKScalingShape(t *testing.T) {
	res, err := KScaling(context.Background(), PaperConfig, 0.9, []int{1, 2, 5, 10, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// K = 1: nothing to collaborate on — both schemes equal (gain ≈ 0).
	if g := res.Rows[0].GainPercent; g > 1 || g < -1 {
		t.Fatalf("K=1 gain %v%%, want ≈0", g)
	}
	// Gain grows monotonically with K.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].GainPercent < res.Rows[i-1].GainPercent-0.2 {
			t.Fatalf("gain not monotone at K=%d: %v after %v",
				res.Rows[i].K, res.Rows[i].GainPercent, res.Rows[i-1].GainPercent)
		}
	}
	// At the paper's K = 10 the gain is substantial (≈47% at p=0.9).
	k10 := res.Rows[3]
	if k10.GainPercent < 35 {
		t.Fatalf("K=10 gain %v%% suspiciously small", k10.GainPercent)
	}
	if !strings.Contains(res.Table().String(), "gain") {
		t.Fatal("table header wrong")
	}
}

func TestKScalingRejectsBadConfig(t *testing.T) {
	if _, err := KScaling(context.Background(), PaperConfig, 0.9, []int{0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}
