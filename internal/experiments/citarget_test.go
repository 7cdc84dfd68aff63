package experiments

import (
	"context"
	"strings"
	"testing"

	"mfdl/internal/table"
)

// Sequential stopping starts every row at two replicas, so a CITarget run
// has error bars even at Replicas 1, and every table that asks
// replicated() shows its ±95% columns.
func TestCITargetShowsCIColumn(t *testing.T) {
	set := DefaultSimSettings
	set.Horizon, set.Warmup = 300, 50
	set.Replicas, set.CITarget = 1, 1000
	res, err := SimValidate(context.Background(), set, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.SimCI95 == 0 {
			t.Errorf("%s row has no CI; sequential stopping should start it at two replicas", row.Scheme)
		}
	}
	for name, tb := range map[string]*table.Table{
		"simvalidate": res.Table(),
		"adapt":       (&AdaptSweepResult{Settings: set}).Table(),
		"adaptparams": (&AdaptParamsResult{Settings: set}).Table(),
		"churn":       (&ChurnSweepResult{Settings: set}).Table(),
		"churn quits": (&ChurnSweepResult{Settings: set}).QuitTable(),
		"hetero":      (&HeteroResult{Options: set.Options}).Table(),
	} {
		if !strings.Contains(tb.String(), "±95%") {
			t.Errorf("%s table hides its ±95%% column under CITarget:\n%s", name, tb.String())
		}
	}
}

// A stopping metric no row reports is a misnamed one: the run fails naming
// it instead of reading the absent key's CI95 of 0 as converged and
// printing every row at R = 2.
func TestCITargetRejectsUnknownMetric(t *testing.T) {
	set := DefaultSimSettings
	set.Horizon, set.Warmup = 300, 50
	set.Replicas, set.CITarget, set.ReplicasMax = 2, 1e-9, 16
	set.CIMetric = "onlien_per_file"
	_, err := SimValidate(context.Background(), set, []float64{0.9})
	if err == nil || !strings.Contains(err.Error(), `"onlien_per_file"`) {
		t.Fatalf("misnamed -ci-metric: err = %v, want one naming it", err)
	}
}
