// The family catalog: the one place a network family's name maps to
// its emitter, its display name and its predicted rounds.

package serve

import (
	"fmt"

	"productsort/internal/emit"
	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/schedule"
)

// FamilyCandidate returns the emitted candidate of the named family
// over n keys: "<engine>[<n>]", priced by the emitter's closed-form
// depth, built by the emitter. n must be a power of two >= 2; it is
// checked before anything is built, with the emitter's own error text.
// FamilyProduct has no emitter (product candidates come from
// ProductCandidate); it and unknown names error.
func FamilyCandidate(family string, n int) (Candidate, error) {
	var c Candidate
	switch family {
	case emit.FamilyMultiway:
		c = Candidate{
			Name:   fmt.Sprintf("%s[%d]", multiway.Engine(multiway.DefaultSorter), n),
			Rounds: multiway.Rounds(n, multiway.DefaultSorter),
			Build:  func() (*schedule.Program, error) { return multiway.Emit(n) },
		}
	case emit.FamilyPeriodic:
		c = Candidate{
			Name:   fmt.Sprintf("%s[%d]", periodic.EngineName, n),
			Rounds: periodic.Rounds(n),
			Build:  func() (*schedule.Program, error) { return periodic.Emit(n) },
		}
	default:
		return Candidate{}, fmt.Errorf("serve: unknown network family %q", family)
	}
	if n < 2 || !emit.PowerOfTwo(n) {
		return Candidate{}, fmt.Errorf("%s: %d lines: power of two >= 2 required", family, n)
	}
	c.Family, c.Nodes = family, n
	return c, nil
}

// FamilyCandidates returns the emitted candidates of the named families
// covering every power-of-two request size up to maxKeys — one
// multiway n-sorter network and/or one periodic network per size.
// FamilyProduct is accepted and ignored (product candidates are built
// from networks by ProductCandidate); unknown family names error.
func FamilyCandidates(families []string, maxKeys int) ([]Candidate, error) {
	if maxKeys < 2 {
		return nil, fmt.Errorf("serve: family candidates need maxKeys >= 2, got %d", maxKeys)
	}
	var out []Candidate
	for _, fam := range families {
		if fam == emit.FamilyProduct {
			continue
		}
		for n := 2; n <= maxKeys; n *= 2 {
			c, err := FamilyCandidate(fam, n)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}
