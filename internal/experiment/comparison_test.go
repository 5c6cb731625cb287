package experiment

import (
	"strings"
	"testing"
)

func TestRunRepairComparisonAtOperatingPoint(t *testing.T) {
	cfg := DefaultRepairComparisonConfig()
	cfg.AudioSeconds = 8
	cfg.Receivers = 2
	res, err := RunRepairComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3 (none, fec, arq)", len(res.Points))
	}
	byScheme := map[string]RepairPoint{}
	for _, p := range res.Points {
		byScheme[p.Scheme] = p
	}
	none, okNone := byScheme["none"]
	fecArm, okFEC := byScheme["fec(6,4)"]
	arqArm, okARQ := byScheme["arq-2"]
	if !okNone || !okFEC || !okARQ {
		t.Fatalf("missing schemes: %v", byScheme)
	}
	// Both repair schemes must beat no repair; FEC must reach ~full delivery
	// at the paper's operating point.
	if fecArm.DeliveredRate <= none.DeliveredRate {
		t.Fatal("FEC did not beat the no-repair baseline")
	}
	if arqArm.DeliveredRate <= none.DeliveredRate {
		t.Fatal("ARQ did not beat the no-repair baseline")
	}
	if fecArm.DeliveredRate < 0.995 {
		t.Fatalf("FEC delivered %v, want ~1.0 at 25 m", fecArm.DeliveredRate)
	}
	// Overheads: none = 1, FEC = n/k, ARQ modest at ~2% loss.
	if none.Overhead != 1 {
		t.Fatalf("no-repair overhead = %v", none.Overhead)
	}
	if fecArm.Overhead < 1.4 || fecArm.Overhead > 1.6 {
		t.Fatalf("FEC overhead = %v", fecArm.Overhead)
	}
	if arqArm.Overhead >= fecArm.Overhead {
		t.Fatalf("ARQ overhead (%v) should undercut FEC (%v) at low loss", arqArm.Overhead, fecArm.Overhead)
	}
	// Delay: no-repair repairs nothing; ARQ repairs arrive after NACK round
	// trips.
	if none.RepairDelay != 0 {
		t.Fatalf("no-repair delay = %v", none.RepairDelay)
	}
	if arqArm.RepairDelay <= 0 {
		t.Fatalf("ARQ repair delay = %v, want > 0", arqArm.RepairDelay)
	}
	table := res.Format()
	for _, want := range []string{"scheme", "fec(6,4)", "arq-2"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestRunRepairComparisonDegradedLink(t *testing.T) {
	cfg := DefaultRepairComparisonConfig()
	cfg.AudioSeconds = 6
	cfg.Receivers = 3
	cfg.DistanceMetres = 38 // ~15-20% loss: bounded ARQ starts leaving holes
	res, err := RunRepairComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]RepairPoint{}
	for _, p := range res.Points {
		byScheme[p.Scheme] = p
	}
	if byScheme["fec(6,4)"].DeliveredRate <= byScheme["none"].DeliveredRate {
		t.Fatal("FEC did not improve delivery on the degraded link")
	}
	// With several receivers losing different packets, ARQ's overhead grows
	// relative to the low-loss case because the union of NACKs is larger.
	if byScheme["arq-2"].Overhead <= 1.0 {
		t.Fatalf("ARQ overhead = %v, want > 1 on a lossy link", byScheme["arq-2"].Overhead)
	}
}

func TestRunRepairComparisonDefaults(t *testing.T) {
	res, err := RunRepairComparison(RepairComparisonConfig{AudioSeconds: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
}

// TestRunRepairComparisonReproducible: one seed, one table — the ARQ arm's
// retransmissions draw the receivers' losses in a fixed order.
func TestRunRepairComparisonReproducible(t *testing.T) {
	cfg := DefaultRepairComparisonConfig()
	cfg.AudioSeconds = 4
	cfg.DistanceMetres = 38 // enough loss for two NACK rounds with many holes
	var tables []string
	for run := 0; run < 2; run++ {
		res, err := RunRepairComparison(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, res.Format())
	}
	if tables[0] != tables[1] {
		t.Fatalf("two runs of one seed differ:\n%s\n%s", tables[0], tables[1])
	}
}
