// Emitted-family candidate sets: the serving-side catalog of
// alternative network families the planner can mix with the paper's
// product networks.

package serve

import (
	"fmt"

	"productsort/internal/emit"
	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/schedule"
)

// FamilyCandidates returns the emitted candidates of the named families
// covering every power-of-two request size up to maxKeys — one
// multiway n-sorter network and/or one periodic network per size.
// FamilyProduct is accepted and ignored (product candidates are built
// from networks, not emitters); unknown family names error. The
// returned candidates plug straight into NewPlannerCandidates alongside
// product networks.
func FamilyCandidates(families []string, maxKeys int) ([]Candidate, error) {
	if maxKeys < 2 {
		return nil, fmt.Errorf("serve: family candidates need maxKeys >= 2, got %d", maxKeys)
	}
	var out []Candidate
	for _, fam := range families {
		switch fam {
		case emit.FamilyProduct:
			// The caller supplies product networks directly.
		case emit.FamilyMultiway:
			for n := 2; n <= maxKeys; n *= 2 {
				n := n
				out = append(out, Candidate{
					Family: emit.FamilyMultiway,
					Name:   fmt.Sprintf("%s[%d]", multiway.Engine(multiway.DefaultSorter), n),
					Nodes:  n,
					Rounds: multiway.Rounds(n, multiway.DefaultSorter),
					Emit:   func() (*schedule.Program, error) { return multiway.Emit(n) },
				})
			}
		case emit.FamilyPeriodic:
			for n := 2; n <= maxKeys; n *= 2 {
				n := n
				out = append(out, Candidate{
					Family: emit.FamilyPeriodic,
					Name:   fmt.Sprintf("%s[%d]", periodic.EngineName, n),
					Nodes:  n,
					Rounds: periodic.Rounds(n),
					Emit:   func() (*schedule.Program, error) { return periodic.Emit(n) },
				})
			}
		default:
			return nil, fmt.Errorf("serve: unknown network family %q", fam)
		}
	}
	return out, nil
}
