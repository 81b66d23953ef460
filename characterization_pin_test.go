package harmony

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCharacterizationBytesPinned pins the saved characterization at the
// benchmark's three set-up points (2 h of trace at the offline workloads'
// 3 and 0.8 tasks/s and the online workloads' 2.5, the facade's
// clustering defaults). Every downstream output — class sizes, container
// shapes, plans, the figures — follows from these bytes, so a K-means or
// classify change that moves one float shows here first.
func TestCharacterizationBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping three 2 h characterizations in -short mode")
	}
	for _, tc := range []struct {
		rate  float64
		scale int
		want  string
	}{
		{3, 1, "0b388467604476ff5b2256dceaa16389ad0bbcc80001985419b5d57c0bc2c6f0"},
		{0.8, 40, "6a58792f7edffbbb1549a26235af6c55c5bf129ab8cd7e677e31847efca06dd4"},
		{2.5, 1, "a6cac114ea7b15487dc1e7150cce8856bb6a78e36134c88adcb43cb524521374"},
	} {
		w, err := GenerateWorkload(WorkloadConfig{Seed: 1, Hours: 2, TasksPerSecond: tc.rate, ClusterScale: tc.scale})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := w.Characterize(CharacterizeConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := ch.Save(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("rate %v, scale %d: sha256(Save) = %s, want %s", tc.rate, tc.scale, got, tc.want)
		}
	}
}
