package schedule_test

import (
	"testing"

	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/schedule"
)

// TestGoldenIREmitted pins the op streams of the emitted programs the
// families server picks at 16 and 64 keys, as TestGoldenIR pins the
// compiled product programs. The hashes were recorded while every
// emitted plan still carried its own host network, before the planner
// stopped building one.
func TestGoldenIREmitted(t *testing.T) {
	cases := []struct {
		name  string
		emit  func(int) (*schedule.Program, error)
		lines int
		want  string
	}{
		{"multiway[16]", multiway.Emit, 16, "55492b9700b035a9daf6988a6ba78161306f0ea36cd25c6304684d712c0119df"},
		{"multiway[64]", multiway.Emit, 64, "4be760c73bf8680484ec2821827443dd71a53b967bea8c9963820a1dbad26210"},
		{"periodic[16]", periodic.Emit, 16, "049da819e89ff317628c58affe269345c341fb96ee059ba6d541fdf5cd278130"},
		{"periodic[64]", periodic.Emit, 64, "2159965840c91954982e8ebb3c58487712f2b6edb23e8a7daeb13d8a89056ce1"},
	}
	for _, c := range cases {
		prog, err := c.emit(c.lines)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if prog.Nodes() != c.lines {
			t.Errorf("%s: %d nodes, want %d", c.name, prog.Nodes(), c.lines)
		}
		if got := schedule.IRHash(prog); got != c.want {
			t.Errorf("%s: IR hash %s, want %s", c.name, got, c.want)
		}
	}
}
