package experiments

import (
	"strings"
	"testing"
)

// The three ablations are one row of the experiment table; its
// miniature run is shared with the smoke test.

func TestAblationOverProvisioning(t *testing.T) {
	tb := miniTables(t, "ablation")[0]
	if len(tb.Rows) == 0 {
		t.Fatalf("no trials completed:\n%s", tb.String())
	}
	hasMean := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "mean availability") {
			hasMean = true
		}
	}
	if !hasMean {
		t.Fatal("no mean note")
	}
}

func TestAblationDownloadScheduling(t *testing.T) {
	tb := miniTables(t, "ablation")[1]
	if len(tb.Notes) == 0 {
		t.Fatalf("no summary note:\n%s", tb.String())
	}
}

func TestAblationChunkerTheta(t *testing.T) {
	tb := miniTables(t, "ablation")[2]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb.String())
	}
}
