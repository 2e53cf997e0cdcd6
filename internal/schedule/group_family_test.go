package schedule_test

import (
	"slices"
	"testing"

	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/schedule"
)

// TestGroupedEmittedFamilies: the multiway and periodic networks group
// like product networks — past one block at the default block width,
// and at 16 lines with a small block.
func TestGroupedEmittedFamilies(t *testing.T) {
	for _, tc := range []struct {
		name string
		emit func(int) (*schedule.Program, error)
	}{
		{"multiway", multiway.Emit},
		{"periodic", periodic.Emit},
	} {
		for _, lines := range []int{16, 256} {
			prog, err := tc.emit(lines)
			if err != nil {
				t.Fatal(err)
			}
			comps, index := schedule.ProgramOrder(prog)
			block := int32(schedule.GroupBlock)
			if lines <= schedule.GroupBlock {
				block = 4
			}
			gcomps, gindex := schedule.GroupByBlock(comps, index, lines, block)
			if err := schedule.CheckProjection(comps, index, gcomps, gindex, lines); err != nil {
				t.Fatalf("%s[%d]: %v", tc.name, lines, err)
			}
			if lines > schedule.GroupBlock && !slices.Equal(prog.LoweredComparators(), gcomps) {
				t.Fatalf("%s[%d]: executed stream is not the grouped stream", tc.name, lines)
			}
			for _, width := range []int{3, 40} {
				schedule.ReplayBoth(t, tc.name, comps, gcomps, schedule.ExtremeSlab(lines, width, int64(lines+width)), width)
			}
		}
	}
}
