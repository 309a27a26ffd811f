package oscope_test

import (
	"strings"
	"testing"

	"hpcvorx/internal/oscope"
)

// FuzzLoad feeds arbitrary trace files to Load, which must reject bad
// input with an error, never a panic. Whatever loads must save to a
// file that loads back and saves to the same bytes. Seed: the
// version-2 file Save writes for the imbalanced two-node run.
func FuzzLoad(f *testing.F) {
	_, sc := imbalancedSystem(f)
	var seed strings.Builder
	if err := sc.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Fuzz(func(t *testing.T, data string) {
		s, err := oscope.Load(strings.NewReader(data))
		if err != nil {
			return
		}
		var first, second strings.Builder
		if err := s.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := oscope.Load(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("saved form of a loaded trace does not load: %v\n%s", err, first.String())
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("save/load not stable:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
